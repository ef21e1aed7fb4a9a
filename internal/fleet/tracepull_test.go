package fleet

import (
	"testing"
	"time"

	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// TestForwardTracePropagationAndPull: a traced raw request through the
// router keeps its trace context across a wrong-owner reroute (emitting a
// route-retry span into the router's registry), and PullTrace retrieves
// the daemon-side spans — with clock samples for the stitcher and an
// explicit error for an unreachable hop.
func TestForwardTracePropagationAndPull(t *testing.T) {
	f := startFleet(t, []float64{1, 1}, nil)
	reg := obs.New()
	reg.SetNode("router")
	r, err := NewRouter(RouterConfig{
		AuthorityAddr: f.daemons[0].addr,
		Budget:        5 * time.Second,
		Obs:           reg,
		Dial:          testCallerDial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.CreateFileSet("vol00"); err != nil {
		t.Fatal(err)
	}

	// Move the file set behind the router's back so the traced request
	// must reroute off the fenced donor mid-flight.
	from := f.auth.Map().Assign["vol00"]
	if _, err := f.auth.Assign("vol00", 1-from); err != nil {
		t.Fatal(err)
	}

	trace := reg.NextTraceID()
	parent := reg.NextSpanID()
	rec := sharedisk.Record{Size: 7}
	resp, err := r.Forward(wire.Request{
		Op: wire.OpCreate, FileSet: "vol00", Path: "/traced",
		Record: &rec, Trace: trace, Parent: parent,
	})
	if err != nil || resp.Err != "" {
		t.Fatalf("forward: %v / %s", err, resp.Err)
	}
	if resp.Trace != trace {
		t.Fatalf("response trace = %d, want the propagated %d", resp.Trace, trace)
	}

	var retry obs.Span
	for _, s := range reg.Spans.ByTrace(trace) {
		if s.Name == "route-retry" {
			retry = s
		}
	}
	if retry.Op != "wrong-owner" || retry.Server != from || retry.Node != "router" {
		t.Fatalf("route-retry span = %+v (want reason wrong-owner against daemon %d)", retry, from)
	}

	nodes := []TraceNode{
		{Name: "d0", Addr: f.daemons[0].addr},
		{Name: "d1", Addr: f.daemons[1].addr},
		{Name: "dead", Addr: "127.0.0.1:1"},
	}
	pulled := PullTrace(trace, nodes, testDial)
	if len(pulled) != 3 {
		t.Fatalf("pulled %d node traces", len(pulled))
	}
	if pulled[2].Err == "" || len(pulled[2].Spans) != 0 {
		t.Fatalf("dead hop = %+v, want an error and no spans", pulled[2])
	}
	wireSpans := 0
	for _, nt := range pulled[:2] {
		if nt.Err != "" {
			t.Fatalf("hop %s: %s", nt.Node, nt.Err)
		}
		if nt.Now.IsZero() || nt.PulledAt.IsZero() {
			t.Fatalf("hop %s missing clock sample: %+v", nt.Node, nt)
		}
		for _, s := range nt.Spans {
			if s.Name == "wire" && s.Trace == trace {
				wireSpans++
				if s.Parent != parent {
					t.Fatalf("wire span parent = %d, want %d", s.Parent, parent)
				}
			}
		}
	}
	// Both daemons saw the request: the donor rejected it (wrong-owner),
	// the new owner served it — both under the same trace.
	if wireSpans < 2 {
		t.Fatalf("found %d wire spans across the fleet, want both hops", wireSpans)
	}
	ft := obs.Stitch(trace, pulled)
	if len(ft.Spans) == 0 || len(ft.Hops) != 3 {
		t.Fatalf("stitched = %d spans, %d hops", len(ft.Spans), len(ft.Hops))
	}
}
