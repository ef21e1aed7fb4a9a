package fleet

import (
	"fmt"
	"strings"
	"testing"

	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// TestHandoffOfLargeFileSet moves a file set whose encoded image is well
// over 1 MiB (8000 records, each with a 100-byte Owner). The adopt frame
// carrying that image must reach the recipient — a transport that caps
// one request at 1 MiB fails the move with "wire: connection closed" —
// and every record must read back through the router afterwards.
func TestHandoffOfLargeFileSet(t *testing.T) {
	const records = 8000
	f := startFleet(t, []float64{1, 1}, nil)
	r := f.router(t)
	if err := r.CreateFileSet("big"); err != nil {
		t.Fatal(err)
	}
	owner := strings.Repeat("o", 100)
	path := func(i int) string { return fmt.Sprintf("/r%05d", i) }
	items := make([]wire.BatchItem, 0, 1000)
	recs := make([]sharedisk.Record, 1000)
	for lo := 0; lo < records; lo += len(recs) {
		items = items[:0]
		for i := range recs {
			recs[i] = sharedisk.Record{Size: int64(lo + i), Owner: owner}
			items = append(items, wire.BatchItem{Op: wire.OpCreate, Path: path(lo + i), Record: &recs[i]})
		}
		res, err := r.Batch("big", false, items)
		if err != nil {
			t.Fatal(err)
		}
		for i, br := range res {
			if br.Err != "" {
				t.Fatalf("create %s: %s", path(lo+i), br.Err)
			}
		}
	}

	from := f.auth.Map().Assign["big"]
	if _, err := f.auth.Assign("big", 1-from); err != nil {
		t.Fatal(err)
	}
	if got := f.auth.Map().Assign["big"]; got != 1-from {
		t.Fatalf("owner after handoff = %d, want %d", got, 1-from)
	}

	paths, err := r.List("big", "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != records {
		t.Fatalf("listed %d records after handoff, want %d", len(paths), records)
	}
	for i := 0; i < records; i += 397 {
		rec, err := r.Stat("big", path(i))
		if err != nil {
			t.Fatalf("stat %s after handoff: %v", path(i), err)
		}
		if rec.Size != int64(i) || rec.Owner != owner {
			t.Fatalf("stat %s after handoff = %+v", path(i), rec)
		}
	}
}
