package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"anufs/internal/sharedisk"
)

// timeFromUnixNano rebuilds a time.Time from its encoded nanoseconds.
func timeFromUnixNano(ns int64) time.Time { return time.Unix(0, ns) }

// On-disk framing. Every journal entry is one frame:
//
//	+----------------+----------------+====================+
//	| payload length | CRC32(payload) |      payload       |
//	|   uint32 LE    |   uint32 LE    |  length bytes      |
//	+----------------+----------------+====================+
//
// payload = [1 byte kind][kind-specific body]. A torn write (crash mid
// append) shows up as a frame whose length runs past EOF or whose CRC does
// not match; recovery truncates the log at the first such frame.
const (
	frameHeaderLen = 8
	// maxFrameLen bounds a single entry. Anything larger is treated as
	// corruption rather than an allocation request.
	maxFrameLen = 64 << 20
)

// ErrCorrupt marks a frame or payload that does not decode; recovery treats
// it as the end of the usable log.
var ErrCorrupt = errors.New("journal: corrupt record")

// EntryKind discriminates journal entries.
type EntryKind uint8

const (
	// KindCreateFileSet records the birth of an empty file set.
	KindCreateFileSet EntryKind = 1
	// KindFlush records a flushed image (post-flush version included).
	KindFlush EntryKind = 2
	// KindDrop records the removal of a file set from this journal's shared
	// disk — written when a fleet handoff donates the file set to another
	// daemon, so replay does not resurrect the fenced copy.
	KindDrop EntryKind = 3
)

// Entry is one decoded journal record.
type Entry struct {
	Kind    EntryKind
	FileSet string
	// Image is the flushed image for KindFlush entries.
	Image sharedisk.Image
}

// appendFrame encodes the payload as a length+CRC frame onto dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// nextFrame extracts the first frame's payload from data. ok is false when
// data starts with a torn or corrupt frame (including a clean EOF: zero
// remaining bytes is simply n=0, ok=false).
func nextFrame(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < frameHeaderLen {
		return nil, 0, false
	}
	ln := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if ln > maxFrameLen || int(ln) > len(data)-frameHeaderLen {
		return nil, 0, false
	}
	payload = data[frameHeaderLen : frameHeaderLen+int(ln)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, false
	}
	return payload, frameHeaderLen + int(ln), true
}

// appendEntry serializes an entry payload (no frame header) onto dst.
// keys is scratch for the image's sorted paths; it is returned, possibly
// grown, for reuse.
func appendEntry(dst []byte, keys []string, e Entry) ([]byte, []string) {
	dst = append(dst, byte(e.Kind))
	dst = appendString(dst, e.FileSet)
	if e.Kind == KindFlush {
		dst, keys = appendImage(dst, keys, e.Image)
	}
	return dst, keys
}

// encodeEntry serializes an entry payload into a fresh buffer.
func encodeEntry(e Entry) []byte {
	payload, _ := appendEntry(nil, nil, e)
	return payload
}

// appendEntryFrame appends e as one complete framed record onto dst,
// with fresh path scratch; the append path uses appendEntryFrameKeys with
// the scratch its pooled request keeps.
func appendEntryFrame(dst []byte, e Entry) []byte {
	dst, _ = appendEntryFrameKeys(dst, nil, e)
	return dst
}

// appendEntryFrameKeys appends e as one complete framed record onto dst:
// the 8-byte header slot is reserved up front, the payload is encoded in
// place, and length+CRC are backfilled — one pass, no intermediate
// payload buffer. keys is the path-sorting scratch (returned for reuse),
// so a pooled dst and keys make the append path allocation-free.
//
//anufs:hotpath
func appendEntryFrameKeys(dst []byte, keys []string, e Entry) ([]byte, []string) {
	hdrOff := len(dst)
	var hdr [frameHeaderLen]byte
	dst = append(dst, hdr[:]...)
	dst, keys = appendEntry(dst, keys, e)
	payload := dst[hdrOff+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[hdrOff:hdrOff+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[hdrOff+4:hdrOff+8], crc32.ChecksumIEEE(payload))
	return dst, keys
}

// decodeEntry parses an entry payload. It never panics: any malformed input
// yields ErrCorrupt.
func decodeEntry(payload []byte) (Entry, error) {
	c := &cursor{b: payload}
	e := Entry{Kind: EntryKind(c.u8())}
	e.FileSet = c.str()
	switch e.Kind {
	case KindCreateFileSet, KindDrop:
	case KindFlush:
		e.Image = c.image()
	default:
		return Entry{}, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, e.Kind)
	}
	if c.err != nil {
		return Entry{}, c.err
	}
	if c.off != len(c.b) {
		return Entry{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.b)-c.off)
	}
	return e, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendImage serializes an image: version, record count, then each record
// in path order as path, size, mode, mod time (zero flagged explicitly —
// the zero time.Time has no representable UnixNano), owner. Path order
// makes the encoding canonical: equal images give equal bytes. keys is
// scratch for the sorted paths, returned for reuse.
func appendImage(dst []byte, keys []string, im sharedisk.Image) ([]byte, []string) {
	dst = binary.AppendUvarint(dst, im.Version)
	dst = binary.AppendUvarint(dst, uint64(len(im.Records)))
	keys = keys[:0]
	for path := range im.Records {
		keys = append(keys, path)
	}
	slices.Sort(keys)
	for _, path := range keys {
		rec := im.Records[path]
		dst = appendString(dst, path)
		dst = binary.AppendVarint(dst, rec.Size)
		dst = binary.AppendUvarint(dst, uint64(rec.Mode))
		if rec.ModTime.IsZero() {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			dst = binary.AppendVarint(dst, rec.ModTime.UnixNano())
		}
		dst = appendString(dst, rec.Owner)
	}
	return dst, keys
}

// cursor is a bounds-checked little decoder: the first failure latches in
// err and every subsequent read returns zero values.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = ErrCorrupt
	}
}

func (c *cursor) u8() uint8 {
	if c.err != nil || c.off >= len(c.b) {
		c.fail()
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) str() string {
	ln := c.uvarint()
	if c.err != nil || ln > uint64(len(c.b)-c.off) {
		c.fail()
		return ""
	}
	s := string(c.b[c.off : c.off+int(ln)])
	c.off += int(ln)
	return s
}

func (c *cursor) image() sharedisk.Image {
	im := sharedisk.Image{Version: c.uvarint()}
	n := c.uvarint()
	// Each record needs at least a few bytes; reject counts that cannot fit
	// before allocating.
	if c.err != nil || n > uint64(len(c.b)-c.off) {
		c.fail()
		return sharedisk.Image{}
	}
	im.Records = make(map[string]sharedisk.Record, n)
	for i := uint64(0); i < n && c.err == nil; i++ {
		path := c.str()
		var rec sharedisk.Record
		rec.Size = c.varint()
		rec.Mode = uint32(c.uvarint())
		if c.u8() != 0 {
			rec.ModTime = timeFromUnixNano(c.varint())
		}
		rec.Owner = c.str()
		im.Records[path] = rec
	}
	return im
}
