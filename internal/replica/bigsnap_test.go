package replica

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"anufs/internal/journal"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// TestShipSnapshotAboveDaemonFrameLimit: a snapshot ship whose raw store
// cut alone exceeds the daemons' wire.MaxFramePayload (≈22 MB once base64
// and JSON wrap it) is acked — the receiver keeps its own, larger frame
// ceiling — and the standby's warm state is the shipped cut.
func TestShipSnapshotAboveDaemonFrameLimit(t *testing.T) {
	const records = 17000
	_, sDir := t.TempDir(), t.TempDir()
	recv, addr := startStandby(t, sDir, ReceiverOptions{SnapshotEvery: -1})

	owner := strings.Repeat("o", 1000)
	recs := make(map[string]sharedisk.Record, records)
	for i := 0; i < records; i++ {
		recs[fmt.Sprintf("/r%05d", i)] = sharedisk.Record{Size: int64(i), Owner: owner}
	}
	snap := journal.EncodeImages(map[string]sharedisk.Image{"big": {Version: 1, Records: recs}})
	if len(snap) <= wire.MaxFramePayload {
		t.Fatalf("snapshot is %d bytes, want more than %d", len(snap), wire.MaxFramePayload)
	}

	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(time.Minute)
	const seq = 42
	ack, err := c.ShipSnapshot(seq, snap)
	if err != nil {
		t.Fatal(err)
	}
	if ack != seq {
		t.Fatalf("ack = %d, want %d", ack, seq)
	}
	images, applied := recv.State()
	if applied != seq || len(images["big"].Records) != records {
		t.Fatalf("standby state: seq %d with %d records, want %d with %d",
			applied, len(images["big"].Records), seq, records)
	}
}
