package metaserver

import (
	"errors"
	"runtime"
	"testing"

	"anufs/internal/sharedisk"
)

// gateDisk is a shared disk whose Flush parks until the test releases it:
// each Flush hands the image it was given to entered, then waits for one
// value on release — nil lets the flush through to the store, an error
// fails it. No test here depends on wall-clock time.
type gateDisk struct {
	*sharedisk.Store
	entered chan sharedisk.Image
	release chan error
}

func newGateDisk(t *testing.T, fileSets ...string) *gateDisk {
	t.Helper()
	d := &gateDisk{Store: sharedisk.NewStore(0), entered: make(chan sharedisk.Image), release: make(chan error)}
	for _, fs := range fileSets {
		if err := d.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func (d *gateDisk) Flush(fileSet string, im sharedisk.Image) (uint64, error) {
	d.entered <- im
	if err := <-d.release; err != nil {
		return 0, err
	}
	return d.Store.Flush(fileSet, im)
}

// settle collects the callers' errors, failing the test if any further
// flush starts meanwhile: a caller that should have folded into an
// earlier flush but leads its own shows up here instead of hanging.
func (d *gateDisk) settle(t *testing.T, calls ...<-chan error) []error {
	t.Helper()
	errs := make([]error, len(calls))
	for i, ch := range calls {
		select {
		case errs[i] = <-ch:
		case im := <-d.entered:
			t.Fatalf("unexpected extra flush of %d records", len(im.Records))
		}
	}
	return errs
}

// settleOK is settle requiring every caller to succeed.
func (d *gateDisk) settleOK(t *testing.T, calls ...<-chan error) {
	t.Helper()
	for _, err := range d.settle(t, calls...) {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// async runs fn on its own goroutine and delivers its error.
func async(fn func() error) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	return ch
}

// awaitWaits spins until the server has counted n waits on an in-flight
// flush, i.e. until the callers under test are parked. A caller in early
// that returns instead, or a second flush starting beside the parked one,
// fails the test.
func (d *gateDisk) awaitWaits(t *testing.T, srv *Server, n int, early ...<-chan error) {
	t.Helper()
	for srv.FlushWaits() < n {
		for _, ch := range early {
			select {
			case err := <-ch:
				t.Fatalf("checkpoint returned (%v) while the flush covering its writes was parked", err)
			default:
			}
		}
		select {
		case <-d.entered:
			t.Fatal("a second flush of the file set started while one was in flight")
		default:
		}
		runtime.Gosched()
	}
}

func gatedServer(t *testing.T) (*gateDisk, *Server) {
	t.Helper()
	disk := newGateDisk(t, "proj")
	srv := New(1, disk)
	if err := srv.Acquire("proj"); err != nil {
		t.Fatal(err)
	}
	return disk, srv
}

// (a) A checkpoint that arrives while a flush of the same file set is in
// flight, with no new writes, does not return until that flush is durable.
func TestCheckpointWaitsForInFlightFlush(t *testing.T) {
	disk, srv := gatedServer(t)
	if err := srv.Create("proj", "/a", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	first := async(func() error { return srv.Checkpoint("proj") })
	<-disk.entered
	second := async(func() error { return srv.Checkpoint("proj") })
	disk.awaitWaits(t, srv, 1, second)
	disk.release <- nil
	disk.settleOK(t, first, second)
	if v, _ := disk.Version("proj"); v != 2 {
		t.Fatalf("disk at version %d, want 2 (one flush)", v)
	}
}

// (b) Writes applied during an in-flight flush get a flush of their own,
// and every checkpoint waiting for them folds into that one flush.
func TestWritesDuringFlushGetTheirOwnFlush(t *testing.T) {
	disk, srv := gatedServer(t)
	if err := srv.Create("proj", "/a", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	first := async(func() error { return srv.Checkpoint("proj") })
	if im := <-disk.entered; len(im.Records) != 1 {
		t.Fatalf("first flush carried %d records, want 1", len(im.Records))
	}
	if err := srv.Create("proj", "/b", sharedisk.Record{Size: 2}); err != nil {
		t.Fatal(err)
	}
	second := async(func() error { return srv.Checkpoint("proj") })
	third := async(func() error { return srv.Checkpoint("proj") })
	disk.awaitWaits(t, srv, 2, second, third)
	disk.release <- nil
	im := <-disk.entered
	if _, ok := im.Records["/b"]; !ok {
		t.Fatal("the follow-up flush does not carry the write made during the first")
	}
	disk.settleOK(t, first)
	disk.release <- nil
	disk.settleOK(t, second, third)
	got, _ := disk.Load("proj")
	if got.Version != 3 || len(got.Records) != 2 {
		t.Fatalf("disk image = version %d with %d records, want version 3 with 2", got.Version, len(got.Records))
	}
}

// (c) Release during an in-flight checkpoint waits for it instead of
// racing its version, then flushes what the checkpoint did not cover: no
// stale-flush error, and the released image holds every write.
func TestReleaseDuringCheckpointNoStaleFlush(t *testing.T) {
	disk, srv := gatedServer(t)
	if err := srv.Create("proj", "/a", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	cp := async(func() error { return srv.Checkpoint("proj") })
	<-disk.entered
	if err := srv.Create("proj", "/b", sharedisk.Record{Size: 2}); err != nil {
		t.Fatal(err)
	}
	rel := async(func() error { return srv.Release("proj") })
	disk.awaitWaits(t, srv, 1, rel)
	if srv.Owns("proj") {
		t.Fatal("still owned while the release waits for the in-flight flush")
	}
	disk.release <- nil
	<-disk.entered
	disk.settleOK(t, cp)
	disk.release <- nil
	disk.settleOK(t, rel)
	got, _ := disk.Load("proj")
	if len(got.Records) != 2 || got.Version != 3 {
		t.Fatalf("released image = version %d with %d records, want version 3 with 2", got.Version, len(got.Records))
	}
}

// (d) The owner keeps serving reads while a checkpoint is parked inside
// Flush.
func TestStatDuringParkedFlush(t *testing.T) {
	disk, srv := gatedServer(t)
	if err := srv.Create("proj", "/a", sharedisk.Record{Size: 7}); err != nil {
		t.Fatal(err)
	}
	cp := async(func() error { return srv.Checkpoint("proj") })
	<-disk.entered
	if rec, err := srv.Stat("proj", "/a"); err != nil || rec.Size != 7 {
		t.Fatalf("Stat during a parked flush = %+v, %v", rec, err)
	}
	disk.release <- nil
	disk.settleOK(t, cp)
}

// (e) A crash during a parked flush fails the checkpoints it strands —
// the leader with its disk's error, a waiter whose writes no flush
// covered with ErrCrashed — instead of hanging or acknowledging writes
// that are gone.
func TestCrashDuringParkedFlushFailsCheckpoints(t *testing.T) {
	disk, srv := gatedServer(t)
	if err := srv.Create("proj", "/a", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	leader := async(func() error { return srv.Checkpoint("proj") })
	<-disk.entered
	if err := srv.Create("proj", "/b", sharedisk.Record{Size: 2}); err != nil {
		t.Fatal(err)
	}
	waiter := async(func() error { return srv.Checkpoint("proj") })
	disk.awaitWaits(t, srv, 1, waiter)
	srv.Crash()
	journalClosed := errors.New("journal closed")
	disk.release <- journalClosed
	errs := disk.settle(t, leader, waiter)
	if !errors.Is(errs[0], journalClosed) {
		t.Fatalf("leader after crash: %v, want the disk's error", errs[0])
	}
	if !errors.Is(errs[1], ErrCrashed) {
		t.Fatalf("waiter after crash: %v, want ErrCrashed", errs[1])
	}
	if err := srv.Checkpoint("proj"); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("checkpoint after crash: %v, want ErrNotOwner", err)
	}
}
