package sdk

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// TestGatewayRoutesOps is the routed-op integration test: one plain
// wire.Client against a gateway exercises the full op surface —
// file-set data ops, mounts, global-path resolution, and lock sessions —
// across a 3-daemon fleet, without ever learning the cluster map.
func TestGatewayRoutesOps(t *testing.T) {
	f := startFleet(t, 3)
	_, addr := startGateway(t, f)
	c, err := testWireDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Data ops route to whichever daemon owns each file set.
	for i := 0; i < 3; i++ {
		fs := fmt.Sprintf("vol%02d", i)
		if err := c.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
		if err := c.Create(fs, "/a", sharedisk.Record{Size: int64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		rec, err := c.Stat(fs, "/a")
		if err != nil || rec.Size != int64(i+1) {
			t.Fatalf("%s stat = %+v, %v", fs, rec, err)
		}
	}

	// Namespace: mounts broadcast so any daemon resolves them; global-path
	// ops resolve then route.
	if err := c.Mount("/mnt/v1", "vol01"); err != nil {
		t.Fatal(err)
	}
	fs, rel, err := c.Resolve("/mnt/v1/x")
	if err != nil || fs != "vol01" || rel != "/x" {
		t.Fatalf("resolve = %q %q %v", fs, rel, err)
	}
	if err := c.PCreate("/mnt/v1/x", sharedisk.Record{Size: 9}); err != nil {
		t.Fatal(err)
	}
	rec, err := c.PStat("/mnt/v1/x")
	if err != nil || rec.Size != 9 {
		t.Fatalf("pstat = %+v, %v", rec, err)
	}
	if err := c.PRemove("/mnt/v1/x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unmount("/mnt/v1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Resolve("/mnt/v1/x"); err == nil {
		t.Fatal("resolve succeeded after unmount")
	}

	// Lock sessions: gateway-minted sessions map to per-daemon sessions,
	// and exclusive locks conflict across clients on the same gateway.
	s1, err := c.Register()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := testWireDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	s2, err := c2.Register()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(s1, "vol00", "/a", true); err != nil {
		t.Fatal(err)
	}
	if err := c2.Lock(s2, "vol00", "/a", true); err == nil || !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("conflicting lock = %v, want a conflict", err)
	}
	if err := c.Renew(s1); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlock(s1, "vol00", "/a"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Lock(s2, "vol00", "/a", true); err != nil {
		t.Fatalf("lock after unlock: %v", err)
	}
	// A session the gateway never minted is rejected.
	if err := c.Lock(99999, "vol00", "/a", false); err == nil {
		t.Fatal("lock under an unknown session succeeded")
	}

	// Ops with nothing to route by are turned away with a clear error.
	if _, err := c.Stats(); err == nil || !strings.Contains(err.Error(), "no file set") {
		t.Fatalf("unroutable op = %v", err)
	}

	// The tagged protocol upgrades end to end: a pipelined sdk.Conn speaks
	// to the gateway exactly as it would to a daemon.
	tc, err := Dial(addr, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	resp, err := tc.Call(wire.Request{Op: wire.OpStat, FileSet: "vol02", Path: "/a"})
	if err != nil || resp.Record == nil || resp.Record.Size != 3 {
		t.Fatalf("tagged stat via gateway = %+v, %v", resp, err)
	}
}

// TestTwoGatewaysRebalanceUnderLoad is the scale-out acceptance test: two
// peer-linked gateways front a 3-daemon fleet while writers hammer both
// and the authority churns ownership (assigns and a rebalance routed
// through the gateways themselves). Every acked write must survive, both
// gateways must converge on the final epoch, and plain old clients keep
// working throughout.
func TestTwoGatewaysRebalanceUnderLoad(t *testing.T) {
	f := startFleet(t, 3)
	gw1, addr1 := startGateway(t, f)
	gw2, addr2 := startGateway(t, f, addr1)

	admin, err := testWireDial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	fileSets := []string{"vol00", "vol01", "vol02", "vol03"}
	for _, fs := range fileSets {
		if err := admin.CreateFileSet(fs); err != nil {
			t.Fatal(err)
		}
	}

	// Writers: half against each gateway, each recording the paths whose
	// creates were acked.
	const writers = 6
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		acked [writers][]string
	)
	addrs := []string{addr1, addr2}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := testWireDial(addrs[w%2])
			if err != nil {
				return
			}
			defer wc.Close()
			fs := fileSets[w%len(fileSets)]
			for i := 0; !stop.Load(); i++ {
				path := fmt.Sprintf("/w%d-%04d", w, i)
				if wc.Create(fs, path, sharedisk.Record{Size: 1}) == nil {
					acked[w] = append(acked[w], fs+path)
				}
			}
		}(w)
	}

	// Ownership churn through the gateways: move every file set, then
	// rebalance, then move some back — each epoch bump invalidates the
	// gateways' shared map caches mid-write.
	for round := 0; round < 2; round++ {
		for i, fs := range fileSets {
			if _, err := admin.Assign(fs, (i+round+1)%3); err != nil {
				t.Fatal(err)
			}
			time.Sleep(30 * time.Millisecond)
		}
	}
	if _, err := admin.Rebalance(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Zero acked-write loss: every acked path stats back through both
	// gateways.
	total := 0
	for _, gwAddr := range addrs {
		rc, err := testWireDial(gwAddr)
		if err != nil {
			t.Fatal(err)
		}
		for w := range acked {
			for _, full := range acked[w] {
				fs, path, _ := strings.Cut(full, "/")
				if _, err := rc.Stat(fs, "/"+path); err != nil {
					rc.Close()
					t.Fatalf("acked write %s lost (via %s): %v", full, gwAddr, err)
				}
			}
		}
		rc.Close()
	}
	for w := range acked {
		total += len(acked[w])
	}
	if total == 0 {
		t.Fatal("no write was ever acked: the churn starved the writers")
	}
	t.Logf("%d acked writes survived the churn", total)

	// Epoch convergence: both gateways' cached maps reach the authority's
	// epoch, and a client asking either gateway sees it.
	want := f.auth.Epoch()
	for i, gw := range []*Gateway{gw1, gw2} {
		cm, err := gw.Router().Refresh()
		if err != nil {
			t.Fatalf("gateway %d refresh: %v", i+1, err)
		}
		if cm.Epoch != want {
			t.Fatalf("gateway %d epoch = %d, want %d", i+1, cm.Epoch, want)
		}
	}
	for _, gwAddr := range addrs {
		ec, err := testWireDial(gwAddr)
		if err != nil {
			t.Fatal(err)
		}
		epoch, err := ec.MapEpoch()
		ec.Close()
		if err != nil || epoch != want {
			t.Fatalf("map epoch via %s = %d, %v; want %d", gwAddr, epoch, err, want)
		}
	}
}

// A gateway whose peer holds a fresher map learns the epoch from the peer
// instead of the authority — the cache-sharing that makes the tier scale.
func TestGatewayPeersShareMaps(t *testing.T) {
	f := startFleet(t, 2)
	gw1, addr1 := startGateway(t, f)
	gw2, _ := startGateway(t, f, addr1)

	c, err := testWireDial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assign("vol00", 1); err != nil {
		t.Fatal(err)
	}
	// gw1 knows the new epoch (it routed the assign); gw2 refreshes
	// peer-first and should pick it up from gw1.
	want := f.auth.Epoch()
	if cm, err := gw1.Router().Refresh(); err != nil || cm.Epoch != want {
		t.Fatalf("gw1 epoch = %v, %v; want %d", cm, err, want)
	}
	gw2.Router().Maps().Invalidate(want)
	cm, err := gw2.Router().Refresh()
	if err != nil || cm.Epoch != want {
		t.Fatalf("gw2 epoch = %v, %v; want %d", cm, err, want)
	}
	if hits := gw2.Router().Counters().Get(fleet.CtrMapPeerHits); hits == 0 {
		t.Fatal("gw2 refreshed without ever hitting its peer's cache")
	}
}
