package wire

import (
	"fmt"
	"testing"
	"time"

	"anufs/internal/journal"
	"anufs/internal/live"
	"anufs/internal/sharedisk"
)

// A durable batch touching four file sets starts all four checkpoints
// before waiting for any, so with a gather window far above scheduling
// noise the four image writes share one group commit: exactly four
// journal records and one fsync.
func TestDurableMultiFileSetBatchOneFsync(t *testing.T) {
	jnl, st, _, err := journal.Open(t.TempDir(), journal.Options{FsyncInterval: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// The file sets go straight into the store: journaling their creation
	// would cost one gather window each and is not what is measured.
	const nfs = 4
	for i := 0; i < nfs; i++ {
		if err := st.CreateFileSet(fmt.Sprintf("fs%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	disk := sharedisk.NewDurable(st, jnl, 0)
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour
	cfg.OpCost = 0
	cl, err := live.NewCluster(cfg, disk, map[int]float64{0: 1, 1: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cl)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cl.Stop()
		jnl.Close()
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	items := make([]BatchItem, nfs)
	for i := range items {
		items[i] = BatchItem{Op: OpCreate, FileSet: fmt.Sprintf("fs%02d", i), Path: "/a", Record: &sharedisk.Record{Size: int64(i)}}
	}
	before := jnl.Counters().Snapshot()
	results, err := c.Batch("", true, items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != "" {
			t.Fatalf("item %d: %s", i, r.Err)
		}
	}
	after := jnl.Counters().Snapshot()
	if got := after[journal.CtrRecords] - before[journal.CtrRecords]; got != nfs {
		t.Errorf("durable batch appended %d journal records, want %d", got, nfs)
	}
	if got := after[journal.CtrFsyncs] - before[journal.CtrFsyncs]; got != 1 {
		t.Errorf("durable batch cost %d fsyncs, want 1", got)
	}
}
