package wire

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startMuteListener accepts connections and answers nothing at all — not
// even the hello. Accepted connections are held open until the test ends.
func startMuteListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
	}()
	return ln.Addr().String()
}

// startStalledServer grants the tagged upgrade and then reads frames
// without ever answering one.
func startStalledServer(t *testing.T) string {
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
				var req Request
				if json.Unmarshal(line, &req) != nil || req.Op != OpHello {
					return
				}
				if json.NewEncoder(conn).Encode(Response{ID: req.ID, Proto: TaggedProtoV1}) != nil {
					return
				}
				fr := NewFrameReader(br)
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

// TestCallTimesOutOnStalledServer is the regression test for per-call
// deadlines: a server that accepts the hello and then never responds used
// to block every caller forever; now the call fails after
// Client.SetTimeout.
func TestCallTimesOutOnStalledServer(t *testing.T) {
	c, err := Dial(startStalledServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)

	start := time.Now()
	_, err = c.Stat("vol00", "/a")
	if err == nil {
		t.Fatal("call against a stalled server returned nil")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v, want ~50ms", d)
	}
	// The abandoned call must not leak its pending entry.
	c.mu.Lock()
	n := len(c.pending)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending entries leaked after timeout", n)
	}
	// The client is still usable for its next (also timed-out) call.
	if _, err := c.Stat("vol00", "/b"); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("second call err = %v", err)
	}
}

// TestDialTimeoutBoundsHello: a peer that accepts TCP but never answers
// the hello costs DialTimeout's d, not DefaultCallTimeout or forever.
func TestDialTimeoutBoundsHello(t *testing.T) {
	addr := startMuteListener(t)
	const d = 100 * time.Millisecond
	start := time.Now()
	c, err := DialTimeout(addr, d)
	if err == nil {
		c.Close()
		t.Fatal("dial against a mute peer succeeded")
	}
	if !TransientError(err) {
		t.Fatalf("err = %v, want a transient (timeout) error", err)
	}
	if took := time.Since(start); took > d+time.Second {
		t.Fatalf("dial took %v, want ~%v", took, d)
	}
}

// TestNegativeTimeoutDisablesDeadline checks the opt-out: a negative
// timeout waits indefinitely (here: until the response arrives late).
func TestNegativeTimeoutDisablesDeadline(t *testing.T) {
	c, _ := startServer(t, 1)
	c.SetTimeout(-1)
	if err := c.CreateFileSet("volx"); err != nil {
		t.Fatal(err)
	}
}

func TestBackoffGrowsJittersAndResets(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second)
	prevMax := time.Duration(0)
	for i := 0; i < 6; i++ {
		d := b.Next()
		step := 100 * time.Millisecond << i
		if step > time.Second {
			step = time.Second
		}
		lo, hi := step-step/4, step+step/4
		if d < lo || d > hi {
			t.Fatalf("step %d: delay %v outside [%v, %v]", i, d, lo, hi)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	b.Reset()
	if d := b.Next(); d > 125*time.Millisecond {
		t.Fatalf("after Reset, delay %v did not return to base", d)
	}
	// Zero-value Backoff is usable with defaults.
	var zb Backoff
	if d := zb.Next(); d <= 0 {
		t.Fatalf("zero-value backoff returned %v", d)
	}
}
