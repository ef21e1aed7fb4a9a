package sdk

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// Dial upgrades to the tagged protocol and many concurrent calls share one
// connection.
func TestDialUpgradesAndPipelines(t *testing.T) {
	f := startFleet(t, 1)
	c, err := Dial(f.daemons[0].addr, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := f.auth.Assign("fs00", 0); err != nil {
		t.Fatal(err)
	}
	// The member adopts the assignment on its next map poll; retry briefly.
	var cerr error
	for i := 0; i < 100; i++ {
		if _, cerr = c.Call(wire.Request{Op: wire.OpCreateFileSet, FileSet: "fs00"}); cerr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if cerr != nil {
		t.Fatal(cerr)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/f%02d", i)
			_, err := c.Call(wire.Request{Op: wire.OpCreate, FileSet: "fs00", Path: path,
				Record: &sharedisk.Record{Size: int64(i)}})
			if err == nil {
				var resp wire.Response
				resp, err = c.Call(wire.Request{Op: wire.OpStat, FileSet: "fs00", Path: path})
				if err == nil && (resp.Record == nil || resp.Record.Size != int64(i)) {
					err = fmt.Errorf("stat record %v, want size %d", resp.Record, i)
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if c.InFlight() != 0 {
		t.Fatalf("in-flight count %d after all calls returned", c.InFlight())
	}
}

// A call whose response never arrives times out with the standard wire
// timeout message (the router treats it as transient).
func TestConnCallTimesOut(t *testing.T) {
	addr := startSilentTaggedServer(t)
	c, err := Dial(addr, Options{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(wire.Request{Op: wire.OpPing})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want a timeout", err)
	}
}

// Closing the connection fails every pending call with the closed error
// instead of leaving it hung.
func TestConnCloseFailsPending(t *testing.T) {
	addr := startSilentTaggedServer(t)
	c, err := Dial(addr, Options{Timeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(wire.Request{Op: wire.OpPing})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call get pending
	c.Close()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "connection closed") {
			t.Fatalf("pending call err = %v, want connection closed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call still hung after Close")
	}
}

// A server-side error string comes back as a typed error through
// wire.ResponseError — the router's vocabulary.
func TestConnErrorVocabulary(t *testing.T) {
	f := startFleet(t, 1)
	c, err := Dial(f.daemons[0].addr, Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(wire.Request{Op: wire.OpStat, FileSet: "nope", Path: "/x"})
	if err == nil {
		t.Fatal("stat of unknown file set succeeded")
	}
}
