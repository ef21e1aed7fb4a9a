package live

import (
	"errors"
	"runtime"
	"testing"

	"anufs/internal/metaserver"
	"anufs/internal/sharedisk"
)

// parkingDisk is a shared disk whose Flush parks until the test releases
// it: each Flush signals entered, then waits for one value on release —
// nil lets it through to the store, an error fails it.
type parkingDisk struct {
	*sharedisk.Store
	entered chan struct{}
	release chan error
}

func (d *parkingDisk) Flush(fileSet string, im sharedisk.Image) (uint64, error) {
	d.entered <- struct{}{}
	if err := <-d.release; err != nil {
		return 0, err
	}
	return d.Store.Flush(fileSet, im)
}

func parkingCluster(t *testing.T, speeds map[int]float64) (*Cluster, *parkingDisk) {
	t.Helper()
	disk := &parkingDisk{Store: sharedisk.NewStore(0), entered: make(chan struct{}), release: make(chan error)}
	if err := disk.CreateFileSet("proj"); err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(testConfig(), disk, speeds)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, disk
}

func goErr(fn func() error) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	return ch
}

// A checkpoint parked inside Flush does not hold the owner's queue: a stat
// on the same file set, and a write to it, are served meanwhile.
func TestStatServedWhileCheckpointParked(t *testing.T) {
	c, disk := parkingCluster(t, map[int]float64{0: 1})
	if err := c.Create("proj", "/a", sharedisk.Record{Size: 7}); err != nil {
		t.Fatal(err)
	}
	cp := goErr(func() error { return c.Checkpoint("proj") })
	<-disk.entered
	if rec, err := c.Stat("proj", "/a"); err != nil || rec.Size != 7 {
		t.Fatalf("Stat during a parked checkpoint = %+v, %v", rec, err)
	}
	if err := c.Update("proj", "/a", sharedisk.Record{Size: 8}); err != nil {
		t.Fatal(err)
	}
	disk.release <- nil
	if err := <-cp; err != nil {
		t.Fatal(err)
	}
}

// Killing the owner while its checkpoint is parked fails that checkpoint,
// and one waiting behind it, instead of hanging — and the waiter is not
// retried onto the survivor, whose clean image would acknowledge writes
// the crash lost.
func TestKillDuringParkedCheckpointFails(t *testing.T) {
	c, disk := parkingCluster(t, map[int]float64{0: 1, 1: 1})
	if err := c.Create("proj", "/a", sharedisk.Record{Size: 1}); err != nil {
		t.Fatal(err)
	}
	owner := c.Owner("proj")
	ms := c.servers[owner].ms
	leader := goErr(func() error { return c.Checkpoint("proj") })
	<-disk.entered
	if err := c.Create("proj", "/b", sharedisk.Record{Size: 2}); err != nil {
		t.Fatal(err)
	}
	waiter := goErr(func() error { return c.Checkpoint("proj") })
	for ms.FlushWaits() < 1 {
		runtime.Gosched()
	}
	if err := c.Kill(owner); err != nil {
		t.Fatal(err)
	}
	journalClosed := errors.New("journal closed")
	disk.release <- journalClosed
	if err := <-leader; !errors.Is(err, journalClosed) {
		t.Fatalf("leader after kill: %v, want the disk's error", err)
	}
	if err := <-waiter; !errors.Is(err, metaserver.ErrCrashed) {
		t.Fatalf("waiter after kill: %v, want ErrCrashed", err)
	}
}
