package sdk

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anufs/internal/wire"
)

// Sequential calls ramp the pool to its full size: every call that finds
// an empty, due slot dials it.
func TestPoolRampsToFullSize(t *testing.T) {
	f := startFleet(t, 1)
	p := NewPool(f.daemons[0].addr, Options{PoolSize: 3, Timeout: 5 * time.Second, HealthInterval: -1})
	defer p.Close()
	for i := 0; i < 3; i++ {
		if err := p.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if got := p.Live(); got != 3 {
		t.Fatalf("live connections = %d after 3 calls, want 3", got)
	}
}

// Concurrent first calls on a fresh one-slot pool wait for the one dial
// in flight instead of failing with errNoConn (which the fleet router
// would answer by dropping the pool under the calls already riding it).
func TestPoolConcurrentFirstCallsShareOneDial(t *testing.T) {
	f := startFleet(t, 1)
	proxy, accepts := countingProxy(t, f.daemons[0].addr)
	p := NewPool(proxy, Options{PoolSize: 1, Timeout: 5 * time.Second, HealthInterval: -1})
	defer p.Close()
	const callers = 32
	start := make(chan struct{})
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs <- p.Ping()
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent first call failed: %v", err)
		}
	}
	if got := accepts.Load(); got != 1 {
		t.Fatalf("pool dialed %d times, want 1", got)
	}
	if got := p.Live(); got != 1 {
		t.Fatalf("live connections = %d, want 1", got)
	}
}

// countingProxy forwards TCP connections to addr and counts how many it
// accepted.
func countingProxy(t *testing.T, addr string) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepts atomic.Int64
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			out, err := net.Dial("tcp", addr)
			if err != nil {
				in.Close()
				continue
			}
			wg.Add(2)
			pipe := func(dst, src net.Conn) {
				defer wg.Done()
				io.Copy(dst, src)
				dst.Close()
				src.Close()
			}
			go pipe(out, in)
			go pipe(in, out)
		}
	}()
	return ln.Addr().String(), &accepts
}

// A pool to an unreachable address errors calls (after the slots back
// off) instead of hanging, and NewPool itself never fails.
func TestPoolUnreachableAddress(t *testing.T) {
	p := NewPool("127.0.0.1:1", Options{PoolSize: 2, HealthInterval: -1})
	defer p.Close()
	if err := p.Ping(); err == nil {
		t.Fatal("ping against an unreachable address succeeded")
	}
	if got := p.Live(); got != 0 {
		t.Fatalf("live connections = %d to an unreachable address", got)
	}
}

// When the daemon dies, calls fail and the erroring connections are
// discarded; when it comes back on the same address, the slots redial
// after their backoff and the pool recovers without being rebuilt.
func TestPoolRedialsAfterRestart(t *testing.T) {
	f := startFleet(t, 1)
	d := f.daemons[0]
	p := NewPool(d.addr, Options{PoolSize: 2, Timeout: time.Second, HealthInterval: -1})
	defer p.Close()
	if err := p.Ping(); err != nil {
		t.Fatal(err)
	}

	d.srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for p.Live() > 0 && time.Now().Before(deadline) {
		p.Ping() // errors discard the dead connections
		time.Sleep(10 * time.Millisecond)
	}
	if p.Live() != 0 {
		t.Fatal("dead connections were never discarded")
	}

	srv := wire.NewServer(d.clus)
	if _, err := srv.Listen(d.addr); err != nil {
		t.Fatalf("restart on %s: %v", d.addr, err)
	}
	d.srv = srv // cleanup closes the new server
	var err error
	for time.Now().Before(deadline) {
		if err = p.Ping(); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("pool never recovered after restart: %v", err)
	}
}

// The health loop notices a wedged connection and discards it without
// waiting for an unlucky caller.
func TestPoolHealthLoopDiscards(t *testing.T) {
	f := startFleet(t, 1)
	d := f.daemons[0]
	p := NewPool(d.addr, Options{PoolSize: 1, Timeout: 200 * time.Millisecond,
		HealthInterval: 50 * time.Millisecond})
	defer p.Close()
	if err := p.Ping(); err != nil {
		t.Fatal(err)
	}
	d.srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for p.Live() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if p.Live() != 0 {
		t.Fatal("health loop never discarded the dead connection")
	}
}

func TestPoolClosedErrors(t *testing.T) {
	f := startFleet(t, 1)
	p := NewPool(f.daemons[0].addr, Options{PoolSize: 1, HealthInterval: -1})
	if err := p.Ping(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if err := p.Ping(); err == nil {
		t.Fatal("call on a closed pool succeeded")
	}
}
