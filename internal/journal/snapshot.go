package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"anufs/internal/sharedisk"
)

// Snapshot persists a full cut of the store and compacts the log: the cut
// is captured while the committer is paused (so it reflects every durable
// entry up to the captured sequence), written to a temp file, fsynced,
// renamed into place, and only then are the covered segments and any older
// snapshots deleted. A crash anywhere in between leaves a recoverable
// directory — the rename is the commit point.
//
// images is a closure (rather than a pre-captured map) precisely so the cut
// cannot be older than the sequence it claims to cover: an entry acked
// before the capture has necessarily been applied to the store already.
func (j *Journal) Snapshot(images func() map[string]sharedisk.Image) error {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()

	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return ErrClosed
	}
	cut := images()
	seq := j.nextSeq - 1
	// Rotate so every non-active segment holds only entries <= seq. An
	// active segment with no entries yet is already in that position (and
	// re-creating it would collide on O_EXCL).
	if j.segSize > headerLen {
		if err := j.openSegmentLocked(); err != nil {
			j.mu.Unlock()
			return err
		}
	}
	activeName := j.f.Name()
	j.mu.Unlock()

	if err := writeSnapshot(j.dir, seq, cut); err != nil {
		return err
	}
	j.counters.Add(CtrSnapshots, 1)
	return j.compact(seq, activeName)
}

// compact removes everything the snapshot at seq supersedes: the segments
// older than activeName (the segment the snapshot rotated to, which starts
// after seq) and all snapshots below seq. Segments from activeName on stay:
// appends keep running while the snapshot is written, so a size rotation
// may already have opened a newer segment holding entries past seq.
func (j *Journal) compact(seq uint64, activeName string) error {
	segs, err := filepath.Glob(filepath.Join(j.dir, "wal-*.log"))
	if err != nil {
		return err
	}
	activeStart, ok := seqFromName(filepath.Base(activeName), "wal-", ".log")
	if !ok {
		return fmt.Errorf("journal: unexpected active segment name %q", activeName)
	}
	removed := 0
	for _, p := range segs {
		if start, ok := seqFromName(filepath.Base(p), "wal-", ".log"); !ok || start >= activeStart {
			continue
		}
		if err := os.Remove(p); err != nil {
			return err
		}
		removed++
	}
	j.counters.Add(CtrCompacted, int64(removed))
	snaps, err := filepath.Glob(filepath.Join(j.dir, "snap-*.snap"))
	if err != nil {
		return err
	}
	for _, p := range snaps {
		if s, ok := seqFromName(filepath.Base(p), "snap-", ".snap"); ok && s < seq {
			if err := os.Remove(p); err != nil {
				return err
			}
		}
	}
	return syncDir(j.dir)
}

// writeSnapshot writes snap-<seq>.snap atomically (temp + fsync + rename +
// dir fsync). Body: header, then one CRC frame holding the encoded images.
func writeSnapshot(dir string, seq uint64, images map[string]sharedisk.Image) error {
	var hdr [headerLen]byte
	putHeader(&hdr, snapMagic, seq)
	buf := append([]byte(nil), hdr[:]...)
	buf = appendFrame(buf, encodeImages(images))

	final := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(dir)
}

// encodeImages serializes a full store cut, file sets in name order (and
// each image's records in path order), so equal cuts give equal bytes.
func encodeImages(images map[string]sharedisk.Image) []byte {
	names := make([]string, 0, len(images))
	for fs := range images {
		names = append(names, fs)
	}
	slices.Sort(names)
	buf := binary.AppendUvarint(nil, uint64(len(images)))
	var keys []string
	for _, fs := range names {
		buf = appendString(buf, fs)
		buf, keys = appendImage(buf, keys, images[fs])
	}
	return buf
}

// decodeImages parses a full store cut; ErrCorrupt on any malformation.
func decodeImages(payload []byte) (map[string]sharedisk.Image, error) {
	c := &cursor{b: payload}
	n := c.uvarint()
	if c.err != nil || n > uint64(len(c.b)-c.off) {
		return nil, ErrCorrupt
	}
	images := make(map[string]sharedisk.Image, n)
	for i := uint64(0); i < n && c.err == nil; i++ {
		fs := c.str()
		images[fs] = c.image()
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(c.b) {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(c.b)-c.off)
	}
	return images, nil
}

// seqFromName parses the hex sequence out of a journal file name.
func seqFromName(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}
