// Package metaserver implements a Storage Tank-style metadata server
// (paper §2): it owns a set of file sets, serves metadata reads and writes
// for them out of an in-memory cache, and implements the ownership
// hand-off protocol — acquire (load the image from shared disk), serve,
// release (flush dirty state and drop the cache) — that the load-placement
// layer drives when it moves file sets between servers.
package metaserver

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"anufs/internal/sharedisk"
)

// ErrNotOwner is returned for operations on a file set this server does not
// currently own; the client should re-resolve the owner from the current
// mapping and retry (paper §5: "when a server sees an unknown unique name,
// it hashes it and routes the request to the appropriate server").
var ErrNotOwner = errors.New("metaserver: not the owner of this file set")

// ErrNotFound is returned for paths that do not exist.
var ErrNotFound = errors.New("metaserver: no such path")

// ErrExists is returned when creating a path that already exists.
var ErrExists = errors.New("metaserver: path exists")

// ErrCrashed is returned to a checkpoint whose writes were dropped by a
// server crash before any flush covered them. It is not ErrNotOwner on
// purpose: retrying against the next owner would acknowledge writes that
// are gone.
var ErrCrashed = errors.New("metaserver: server crashed before the checkpoint was durable")

// Server is one metadata server. Safe for concurrent use.
type Server struct {
	id   int
	disk sharedisk.Disk

	mu    sync.Mutex
	owned map[string]*fileSetState

	// DirtyFlushes counts flushes performed on release — observability for
	// the cache-preservation claims.
	dirtyFlushes int
	// flushWaits counts the times a checkpoint or release waited for a
	// flush of the same file set already in flight instead of starting
	// its own.
	flushWaits int
}

// fileSetState is one owned file set. Every mutation bumps gen; a flush
// that captured the image at gen g sets flushedGen to g once it is on
// disk, so gen > flushedGen means dirty. At most one flush of a file set
// is in flight at a time: flushing is non-nil (and closed when it ends)
// while one is, and every other checkpoint of that file set waits for it
// instead of flushing beside it.
type fileSetState struct {
	image      sharedisk.Image
	gen        uint64
	flushedGen uint64
	flushing   chan struct{}
	// crashed marks state dropped by Crash: its unflushed writes are gone.
	crashed bool
}

// New creates a metadata server bound to the shared disk (the in-memory
// Store, or Durable when flushes must survive a process crash).
func New(id int, disk sharedisk.Disk) *Server {
	return &Server{id: id, disk: disk, owned: map[string]*fileSetState{}}
}

// ID returns the server's cluster ID.
func (s *Server) ID() int { return s.id }

// Owns reports whether the server currently owns the file set.
func (s *Server) Owns(fileSet string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.owned[fileSet]
	return ok
}

// Owned lists the file sets this server currently serves, sorted.
func (s *Server) Owned() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.owned))
	for fs := range s.owned {
		out = append(out, fs)
	}
	sort.Strings(out)
	return out
}

// DirtyFlushes reports how many release-time flushes the server performed.
func (s *Server) DirtyFlushes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirtyFlushes
}

// FlushWaits reports how many times a checkpoint or release waited for
// another caller's in-flight flush of the same file set.
func (s *Server) FlushWaits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushWaits
}

// Acquire loads the file set's image from shared disk and begins serving
// it. Acquiring an already-owned file set is an error — it would indicate
// the placement layer double-assigned it.
func (s *Server) Acquire(fileSet string) error {
	im, err := s.disk.Load(fileSet)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.owned[fileSet]; dup {
		return fmt.Errorf("metaserver %d: already own %q", s.id, fileSet)
	}
	s.owned[fileSet] = &fileSetState{image: im}
	return nil
}

// Release stops serving the file set and flushes what is dirty — the
// shedding half of a move (paper §4: "the shedding server flushes its
// cache with respect to shed file sets to create a consistent disk
// image"). Ownership goes first, so no write lands after the final flush;
// a checkpoint flush already in flight is waited for, not raced.
func (s *Server) Release(fileSet string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.owned[fileSet]
	if !ok {
		return ErrNotOwner
	}
	delete(s.owned, fileSet)
	if st.gen > st.flushedGen {
		s.dirtyFlushes++
	}
	return s.flushLocked(0, fileSet, st, true)
}

// Crash drops all owned file sets WITHOUT flushing — a server failure. The
// images on shared disk remain at their last flushed version, which is what
// a recovering owner adopts.
func (s *Server) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.owned {
		st.crashed = true
	}
	s.owned = map[string]*fileSetState{}
}

// Checkpoint flushes a file set's dirty state without releasing ownership
// (background cleaning; keeps the window of loss small).
func (s *Server) Checkpoint(fileSet string) error {
	return s.CheckpointTraced(0, fileSet)
}

// tracedFlusher is optionally implemented by disks (sharedisk.Durable)
// that can attribute a flush to the client request trace that forced it.
type tracedFlusher interface {
	FlushTraced(trace uint64, fileSet string, im sharedisk.Image) (uint64, error)
}

// CheckpointTraced is Checkpoint attributed to a request trace (0 =
// untraced): a durable disk journals the flush under that trace so the
// fsync it waits on appears in the request's timeline.
//
// It runs on the caller's goroutine and returns once every write applied
// before the call is on disk. Concurrent checkpoints of one file set fold
// into as few image writes as the writes between them allow: a caller
// that finds a flush in flight waits for it, and leads the next flush
// only if that one did not cover its writes.
func (s *Server) CheckpointTraced(trace uint64, fileSet string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.owned[fileSet]
	if !ok {
		return ErrNotOwner
	}
	return s.flushLocked(trace, fileSet, st, false)
}

// flushLocked returns once every write st holds at the call is on disk.
// Called and returns with s.mu held; drops it while waiting and while
// flushing. Only the releaser may lead a flush of state the server no
// longer owns — any other caller then gets ErrNotOwner (the releaser's
// flush covers its writes, and the next owner loads them) or, after a
// crash, ErrCrashed.
func (s *Server) flushLocked(trace uint64, fileSet string, st *fileSetState, releasing bool) error {
	target := st.gen
	for st.flushedGen < target {
		if ch := st.flushing; ch != nil {
			s.flushWaits++
			s.mu.Unlock()
			<-ch
			s.mu.Lock()
			continue
		}
		if st.crashed {
			return ErrCrashed
		}
		if !releasing && s.owned[fileSet] != st {
			return ErrNotOwner
		}
		ch := make(chan struct{})
		st.flushing = ch
		gen, im := st.gen, st.clone()
		s.mu.Unlock()
		newV, err := s.flush(trace, fileSet, im)
		s.mu.Lock()
		st.flushing = nil
		close(ch)
		if err != nil {
			return err
		}
		st.image.Version = newV
		st.flushedGen = gen
	}
	return nil
}

// flush writes one image to the disk, under the request trace when the
// disk can attribute it.
func (s *Server) flush(trace uint64, fileSet string, im sharedisk.Image) (uint64, error) {
	if tf, ok := s.disk.(tracedFlusher); ok && trace != 0 {
		return tf.FlushTraced(trace, fileSet, im)
	}
	return s.disk.Flush(fileSet, im)
}

func (f *fileSetState) clone() sharedisk.Image {
	cp := sharedisk.Image{Version: f.image.Version, Records: make(map[string]sharedisk.Record, len(f.image.Records))}
	for k, v := range f.image.Records {
		cp.Records[k] = v
	}
	return cp
}

// withFileSet runs fn with the file set's state under the lock.
func (s *Server) withFileSet(fileSet string, fn func(*fileSetState) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.owned[fileSet]
	if !ok {
		return ErrNotOwner
	}
	return fn(st)
}

// Create adds a metadata record at path within the file set.
func (s *Server) Create(fileSet, path string, rec sharedisk.Record) error {
	if path == "" {
		return fmt.Errorf("metaserver: empty path")
	}
	return s.withFileSet(fileSet, func(st *fileSetState) error {
		if _, dup := st.image.Records[path]; dup {
			return ErrExists
		}
		if rec.ModTime.IsZero() {
			rec.ModTime = time.Now()
		}
		st.image.Records[path] = rec
		st.gen++
		return nil
	})
}

// Stat returns the metadata record at path.
func (s *Server) Stat(fileSet, path string) (sharedisk.Record, error) {
	var rec sharedisk.Record
	err := s.withFileSet(fileSet, func(st *fileSetState) error {
		r, ok := st.image.Records[path]
		if !ok {
			return ErrNotFound
		}
		rec = r
		return nil
	})
	return rec, err
}

// Update overwrites the record at path.
func (s *Server) Update(fileSet, path string, rec sharedisk.Record) error {
	return s.withFileSet(fileSet, func(st *fileSetState) error {
		if _, ok := st.image.Records[path]; !ok {
			return ErrNotFound
		}
		st.image.Records[path] = rec
		st.gen++
		return nil
	})
}

// Remove deletes the record at path.
func (s *Server) Remove(fileSet, path string) error {
	return s.withFileSet(fileSet, func(st *fileSetState) error {
		if _, ok := st.image.Records[path]; !ok {
			return ErrNotFound
		}
		delete(st.image.Records, path)
		st.gen++
		return nil
	})
}

// List returns the paths under the given prefix, sorted.
func (s *Server) List(fileSet, prefix string) ([]string, error) {
	var out []string
	err := s.withFileSet(fileSet, func(st *fileSetState) error {
		for p := range st.image.Records {
			if strings.HasPrefix(p, prefix) {
				out = append(out, p)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(out)
	return out, nil
}
