package journal

import (
	"testing"
	"time"

	"anufs/internal/sharedisk"
)

func benchEntry() Entry {
	im := sharedisk.Image{Version: 7, Records: map[string]sharedisk.Record{}}
	mod := time.Unix(0, 1754560000000000000)
	for _, p := range []string{"/a", "/b/c", "/b/d", "/e"} {
		im.Records[p] = sharedisk.Record{Size: 4096, Mode: 0o644, ModTime: mod, Owner: "alice"}
	}
	return Entry{Kind: KindFlush, FileSet: "fs00", Image: im}
}

// TestAppendEntryFrameMatchesTwoPass pins the one-pass framed encoding
// against the original encode-then-frame composition, including the
// backfilled length and CRC.
func TestAppendEntryFrameMatchesTwoPass(t *testing.T) {
	entries := []Entry{
		{Kind: KindCreateFileSet, FileSet: "fs00"},
		{Kind: KindDrop, FileSet: "fs01"},
		benchEntry(),
	}
	for i, e := range entries {
		want := appendFrame(nil, encodeEntry(e))
		got := appendEntryFrame([]byte("prefix"), e)
		if string(got[:6]) != "prefix" {
			t.Fatalf("entry %d: prefix clobbered", i)
		}
		if string(got[6:]) != string(want) {
			t.Errorf("entry %d: one-pass frame differs from two-pass", i)
		}
		payload, n, ok := nextFrame(got[6:])
		if !ok || n != len(want) {
			t.Fatalf("entry %d: frame does not parse back", i)
		}
		if _, err := decodeEntry(payload); err != nil {
			t.Errorf("entry %d: payload does not decode: %v", i, err)
		}
	}
}

// TestAppendEntryFrameAllocFree is the journal half of the hot-path
// allocation contract: encoding into a warmed buffer and path scratch —
// what a pooled append request holds — allocates nothing.
func TestAppendEntryFrameAllocFree(t *testing.T) {
	e := benchEntry()
	var buf []byte
	var keys []string
	if n := testing.AllocsPerRun(100, func() {
		buf, keys = appendEntryFrameKeys(buf[:0], keys, e)
	}); n != 0 {
		t.Errorf("appendEntryFrame: %v allocs/op, want 0", n)
	}
}

// BenchmarkEncodeEntryFrame rides the same CI allocation guard as the
// wire codec benchmarks (cmd/allocguard asserts 0 allocs/op).
func BenchmarkEncodeEntryFrame(b *testing.B) {
	e := benchEntry()
	var buf []byte
	var keys []string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, keys = appendEntryFrameKeys(buf[:0], keys, e)
	}
}
