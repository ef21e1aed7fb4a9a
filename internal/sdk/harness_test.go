package sdk

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/live"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// testDaemon is one in-process anufsd stand-in: its own disk, cluster,
// wire server, and fleet member — the same shape cmd/anufsd assembles.
type testDaemon struct {
	id     int
	addr   string
	disk   *sharedisk.Store
	clus   *live.Cluster
	srv    *wire.Server
	member *fleet.Member
}

// testFleet wires n daemons together; daemon 0 hosts the authority.
type testFleet struct {
	auth    *fleet.Authority
	daemons []*testDaemon
}

func testWireDial(addr string) (*wire.Client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	c.SetTimeout(5 * time.Second)
	return c, nil
}

// startFleet launches n single-server daemons over loopback, all at speed
// 1, with background tuning disabled — file sets only move when the
// authority moves them.
func startFleet(t testing.TB, n int) *testFleet {
	t.Helper()
	f := &testFleet{}
	infos := make([]placement.DaemonInfo, n)
	for i := 0; i < n; i++ {
		d := &testDaemon{id: i, disk: sharedisk.NewStore(0)}
		cfg := live.DefaultConfig()
		cfg.Window = time.Hour
		cfg.OpCost = 0
		cfg.RetryBudget = 200 * time.Millisecond
		clus, err := live.NewCluster(cfg, d.disk, map[int]float64{0: 1})
		if err != nil {
			t.Fatal(err)
		}
		d.clus = clus
		d.srv = wire.NewServer(clus)
		addr, err := d.srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		d.addr = addr
		infos[i] = placement.DaemonInfo{ID: i, Addr: addr, Speed: 1}
		f.daemons = append(f.daemons, d)
	}
	auth, err := fleet.NewAuthority(fleet.AuthorityConfig{Daemons: infos, Dial: testWireDial})
	if err != nil {
		t.Fatal(err)
	}
	f.auth = auth
	for _, d := range f.daemons {
		mc := fleet.MemberConfig{
			ID:           d.id,
			Cluster:      d.clus,
			Disk:         d.disk,
			DrainTimeout: 2 * time.Second,
			PollInterval: 20 * time.Millisecond,
			Dial:         testWireDial,
		}
		if d.id == 0 {
			mc.Authority = auth
		} else {
			mc.AuthorityAddr = f.daemons[0].addr
		}
		m, err := fleet.NewMember(mc, auth.Map())
		if err != nil {
			t.Fatal(err)
		}
		d.member = m
		d.srv.SetFleet(m)
		m.Start()
	}
	t.Cleanup(func() {
		for _, d := range f.daemons {
			d.member.Stop()
			d.srv.Close()
			d.clus.Stop()
		}
	})
	return f
}

// authority returns the fleet's authority wire address (daemon 0).
func (f *testFleet) authority() string { return f.daemons[0].addr }

// startGateway runs one gateway over the fleet and returns it with its
// listen address.
func startGateway(t testing.TB, f *testFleet, peers ...string) (*Gateway, string) {
	t.Helper()
	gw, err := NewGateway(GatewayConfig{
		Authority: f.authority(),
		Peers:     peers,
		Budget:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		t.Fatal(err)
	}
	go gw.ServeListener(ln)
	t.Cleanup(func() {
		ln.Close()
		gw.Close()
	})
	return gw, ln.Addr().String()
}

// startSilentTaggedServer accepts the hello upgrade and then swallows
// every frame — for timeout and close-with-pending tests.
func startSilentTaggedServer(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				line, err := br.ReadBytes('\n')
				if err != nil {
					return
				}
				var req wire.Request
				if json.Unmarshal(line, &req) != nil || req.Op != wire.OpHello {
					return
				}
				enc := json.NewEncoder(conn)
				if enc.Encode(wire.Response{ID: req.ID, Proto: wire.TaggedProtoV1}) != nil {
					return
				}
				fr := wire.NewFrameReader(br)
				for {
					if _, _, _, err := fr.ReadFrame(); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}
