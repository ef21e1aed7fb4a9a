package live

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

func mkTask(fileSet string) task {
	return task{enq: time.Now(), reply: make(chan taskResult, 1), fileSet: fileSet}
}

// TestTaskQueueWeightedShare: with backlogs on two volumes, pops divide
// by weight — volume A at weight 3 gets ~3x volume B's service.
func TestTaskQueueWeightedShare(t *testing.T) {
	q := newTaskQueue(true, 64)
	q.setWeights(map[string]float64{"a": 3, "b": 1})
	for i := 0; i < 60; i++ {
		if err := q.push(mkTask("a/fs")); err != nil {
			t.Fatal(err)
		}
		if err := q.push(mkTask("b/fs")); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		tk, ok := q.pop()
		if !ok {
			t.Fatal("pop returned closed")
		}
		vol := tk.fileSet[:1]
		counts[vol]++
	}
	// Stride scheduling at 3:1 over 40 pops: 30 a's, 10 b's (±1 for the
	// arbitrary tie-break at start).
	if counts["a"] < 28 || counts["a"] > 32 {
		t.Fatalf("weight-3 volume got %d of 40 pops, want ~30 (counts %v)", counts["a"], counts)
	}
}

// TestTaskQueueFIFOWithinVolume: a volume's own tasks are served in
// arrival order regardless of interleaved tenants.
func TestTaskQueueFIFOWithinVolume(t *testing.T) {
	q := newTaskQueue(true, 64)
	for i := 0; i < 10; i++ {
		tk := mkTask("a/fs")
		tk.op = fmt.Sprintf("%d", i)
		if err := q.push(tk); err != nil {
			t.Fatal(err)
		}
		if err := q.push(mkTask("b/fs")); err != nil {
			t.Fatal(err)
		}
	}
	// Stop once volume a is drained: popping past the last queued task
	// blocks, and equal-pass ties make either volume's last task the
	// queue's last.
	next := 0
	for next < 10 {
		tk, ok := q.pop()
		if !ok {
			break
		}
		if tk.fileSet != "a/fs" {
			continue
		}
		if tk.op != fmt.Sprintf("%d", next) {
			t.Fatalf("volume a served %q, want %d", tk.op, next)
		}
		next++
	}
	if next != 10 {
		t.Fatalf("served %d of volume a's 10 tasks", next)
	}
}

// TestTaskQueuePerVolumeBackpressure: a full tenant queue blocks only
// that tenant's pushers; other tenants submit unimpeded, and close wakes
// the blocked pusher with ErrStopped.
func TestTaskQueuePerVolumeBackpressure(t *testing.T) {
	q := newTaskQueue(true, 4)
	for i := 0; i < 4; i++ {
		if err := q.push(mkTask("hot/fs")); err != nil {
			t.Fatal(err)
		}
	}
	blocked := make(chan error, 1)
	go func() { blocked <- q.push(mkTask("hot/fs")) }()
	select {
	case err := <-blocked:
		t.Fatalf("push into a full tenant queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	coldDone := make(chan error, 1)
	go func() { coldDone <- q.push(mkTask("cold/fs")) }()
	select {
	case err := <-coldDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("cold tenant's push blocked behind the hot tenant's full queue")
	}
	q.close()
	if err := <-blocked; err != ErrStopped {
		t.Fatalf("blocked pusher got %v after close, want ErrStopped", err)
	}
}

// TestTaskQueueGlobalFIFOMode: fair off = the legacy single queue — one
// tenant's backlog blocks everyone's pushers once the global bound fills.
func TestTaskQueueGlobalFIFOMode(t *testing.T) {
	q := newTaskQueue(false, 4)
	for i := 0; i < 4; i++ {
		if err := q.push(mkTask("hot/fs")); err != nil {
			t.Fatal(err)
		}
	}
	coldBlocked := make(chan error, 1)
	go func() { coldBlocked <- q.push(mkTask("cold/fs")) }()
	select {
	case err := <-coldBlocked:
		t.Fatalf("FIFO-mode push did not share the global bound: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if tk, ok := q.pop(); !ok || tk.fileSet != "hot/fs" {
		t.Fatalf("pop = (%q, %v)", tk.fileSet, ok)
	}
	if err := <-coldBlocked; err != nil {
		t.Fatal(err)
	}
	q.close()
}

// TestTaskQueueDrainOnClose: close rejects new pushes but already-queued
// tasks still pop.
func TestTaskQueueDrainOnClose(t *testing.T) {
	q := newTaskQueue(true, 8)
	for i := 0; i < 3; i++ {
		if err := q.push(mkTask("a/fs")); err != nil {
			t.Fatal(err)
		}
	}
	q.close()
	if err := q.push(mkTask("a/fs")); err != ErrStopped {
		t.Fatalf("push after close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.pop(); !ok {
			t.Fatalf("pop %d returned closed with tasks still queued", i)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop returned a task from a drained closed queue")
	}
}

// coldP99Virtual drives one server's real taskQueue in virtual time: the
// server pops one task per opCost; the cold tenant issues n sequential
// ops, each submitted the moment the previous one completes; with
// saturated set, the hot tenant's submitters keep its queue full (every
// freed slot is refilled at once, after the cold tenant's submit at the
// same instant). It returns the cold tenant's p99 latency, submit to
// completion. The stride scheduler is deterministic up to pass ties, so
// no goroutine scheduling or host load reaches the numbers: under WFQ a
// cold op waits behind at most two hot ones (when both ties go to the
// hot tenant), under FIFO behind the hot tenant's whole backlog.
func coldP99Virtual(t *testing.T, fair, saturated bool, depth, n int, opCost time.Duration) time.Duration {
	t.Helper()
	q := newTaskQueue(fair, depth)
	var now, submitted time.Duration
	pending := false
	lats := make([]time.Duration, 0, n)
	hasRoom := func(vol string) bool {
		if fair {
			return q.depthOf(vol) < depth
		}
		return q.depthOf("") < depth
	}
	push := func(fileSet string) {
		if err := q.push(task{fileSet: fileSet}); err != nil {
			t.Fatal(err)
		}
	}
	for pops := 0; len(lats) < n; pops++ {
		if pops > 2*(depth+1)*n {
			t.Fatalf("cold tenant starved: %d of %d ops done after %d pops", len(lats), n, pops)
		}
		if !pending && hasRoom("cold") {
			push("cold/a")
			pending, submitted = true, now
		}
		for saturated && hasRoom("hot") {
			push("hot/a")
		}
		tk, ok := q.pop()
		if !ok {
			t.Fatal("queue closed")
		}
		now += opCost
		if tk.fileSet == "cold/a" {
			lats = append(lats, now-submitted)
			pending = false
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := (99*len(lats) + 99) / 100
	if idx > 0 {
		idx--
	}
	return lats[idx]
}

// TestTwoTenantIsolationWFQ is the acceptance scenario: tenant A
// saturates its owner queue while tenant B runs a light sequential load.
// With weighted fair queueing, B's p99 stays within 3x its solo baseline;
// with the legacy FIFO, B's p99 blows past that bound (unbounded
// starvation) — both halves are asserted, so the test fails if WFQ stops
// isolating OR if the FIFO baseline quietly stops starving (which would
// mean the comparison no longer demonstrates anything). The claim is
// checked in virtual time (coldP99Virtual); cmd/benchvol -check gates the
// same bound in wall-clock time on a running cluster.
func TestTwoTenantIsolationWFQ(t *testing.T) {
	const (
		opCost = 2 * time.Millisecond
		depth  = 8
	)
	soloFair := coldP99Virtual(t, true, false, depth, 60, opCost)
	contendedFair := coldP99Virtual(t, true, true, depth, 60, opCost)
	t.Logf("fair: solo p99=%v contended p99=%v (bound 3x=%v)", soloFair, contendedFair, 3*soloFair)
	if contendedFair > 3*soloFair {
		t.Fatalf("WFQ failed to isolate: cold p99 %v > 3x solo %v", contendedFair, soloFair)
	}

	soloFifo := coldP99Virtual(t, false, false, depth, 10, opCost)
	contendedFifo := coldP99Virtual(t, false, true, depth, 10, opCost)
	t.Logf("fifo: solo p99=%v contended p99=%v", soloFifo, contendedFifo)
	if contendedFifo <= 3*soloFifo {
		t.Fatalf("FIFO baseline no longer starves (cold p99 %v <= 3x solo %v): the WFQ comparison is vacuous", contendedFifo, soloFifo)
	}
}
