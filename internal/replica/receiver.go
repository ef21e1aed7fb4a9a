package replica

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"anufs/internal/election"
	"anufs/internal/journal"
	"anufs/internal/metrics"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// maxShipPayload is the receiver's request frame limit. Snapshot ships
// carry a full base64 store cut in one frame, so the bound is the journal
// frame ceiling plus base64 and JSON overhead — above the daemons'
// wire.MaxFramePayload, which is why the receiver sets its own.
const maxShipPayload = 96 << 20

// ErrPromoted is returned to ship requests that arrive after the standby
// has promoted itself — the old primary must not keep replicating into a
// journal that now has a local writer.
var ErrPromoted = errors.New("replica: standby promoted")

// ReceiverOptions parameterizes a Receiver.
type ReceiverOptions struct {
	// Journal is the standby's own journal, opened on its local directory.
	// The receiver is its only writer until promotion.
	Journal *journal.Journal
	// Images is the recovered store state matching the journal's durable
	// sequence (e.g. Store.Images() right after journal.Open). The receiver
	// takes ownership and keeps it warm by applying shipped entries.
	Images map[string]sharedisk.Image
	// Lease is how long the primary may go silent before promotion
	// (default DefaultLease).
	Lease time.Duration
	// StartupGrace is how long a freshly started standby waits for the
	// primary's FIRST contact before the promotion clock starts; once the
	// primary has shipped anything, its lease is on its own traffic.
	// Default 5×Lease. A standby whose primary never appears still
	// promotes — after the grace.
	StartupGrace time.Duration
	// SnapshotEvery compacts the standby journal after this many applied
	// entries, bounding standby restart time (default 4096; negative
	// disables).
	SnapshotEvery int
	// Obs, when set, receives the receiver's counters and applied gauge.
	Obs *obs.Registry
}

func (o ReceiverOptions) withDefaults() ReceiverOptions {
	if o.Lease <= 0 {
		o.Lease = DefaultLease
	}
	if o.StartupGrace <= 0 {
		o.StartupGrace = 5 * o.Lease
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 4096
	}
	return o
}

// Receiver is the standby side of log shipping: it listens for ship /
// ship-status requests, persists shipped entries through the standby's own
// journal (mirroring the primary's sequence numbering), applies them to a
// warm in-memory store, and promotes itself when the primary's lease
// lapses. Every other wire op is refused — a standby serves replication
// only, until promotion.
type Receiver struct {
	opts     ReceiverOptions
	elector  *election.Elector
	counters *metrics.CounterSet

	mu        sync.Mutex
	images    map[string]sharedisk.Image
	applied   uint64
	sinceSnap int
	ln        net.Listener
	conns     map[net.Conn]struct{}
	sawShip   bool
	closed    bool

	promoted    chan struct{}
	promoteOnce sync.Once
	stop        chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
}

// NewReceiver creates a standby receiver over a recovered journal + image
// map. Listen starts serving.
func NewReceiver(opts ReceiverOptions) (*Receiver, error) {
	if opts.Journal == nil {
		return nil, errors.New("replica: receiver needs a journal")
	}
	if opts.Images == nil {
		opts.Images = map[string]sharedisk.Image{}
	}
	opts = opts.withDefaults()
	r := &Receiver{
		opts:     opts,
		elector:  election.New(opts.Lease, nil),
		counters: metrics.NewCounterSet(),
		images:   opts.Images,
		applied:  opts.Journal.DurableSeq(),
		conns:    map[net.Conn]struct{}{},
		promoted: make(chan struct{}),
		stop:     make(chan struct{}),
	}
	if reg := opts.Obs; reg != nil {
		reg.AddCounters(r.counters.Snapshot)
		reg.AddGauges(func() []obs.Gauge {
			r.mu.Lock()
			applied := r.applied
			r.mu.Unlock()
			return []obs.Gauge{{Name: "replica_applied_seq", Value: float64(applied)}}
		})
		reg.AddStatus("replication", func() any {
			r.mu.Lock()
			applied, sawShip := r.applied, r.sawShip
			r.mu.Unlock()
			mode := "standby"
			if r.isPromoted() {
				mode = "promoted"
			}
			return map[string]any{
				"mode":        mode,
				"applied_seq": applied,
				"saw_primary": sawShip,
				"lease":       r.opts.Lease.String(),
			}
		})
	}
	return r, nil
}

// Listen binds the replication listener and starts the accept loop, the
// standby's self-heartbeat, and the promotion watcher. Returns the bound
// address.
func (r *Receiver) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	r.ln = ln
	r.mu.Unlock()

	// The standby is always a live election member. The primary's startup
	// grant must land before the promotion watcher starts: its initial poll
	// reports current state immediately, and a one-member election would
	// make the standby delegate — instant self-promotion at boot.
	r.elector.Heartbeat(StandbyID)
	r.elector.Heartbeat(PrimaryID)
	r.wg.Add(3)
	go r.acceptLoop(ln)
	go r.selfHeartbeat()
	go r.watchPromotion()
	return ln.Addr().String(), nil
}

// Promoted is closed when the standby has taken over as primary.
func (r *Receiver) Promoted() <-chan struct{} { return r.promoted }

// Counters exposes the receiver's counter set (also exported via Obs).
func (r *Receiver) Counters() *metrics.CounterSet { return r.counters }

// State hands back the warm image map and the sequence it reflects. Call
// only after promotion (or Stop): the receiver no longer mutates the map,
// so the caller may adopt it directly into a store.
func (r *Receiver) State() (map[string]sharedisk.Image, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.images, r.applied
}

// Stop halts the listener and every connection. It does not close the
// journal (the caller owns it — promotion keeps using it).
func (r *Receiver) Stop() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.mu.Lock()
		r.closed = true
		ln := r.ln
		conns := make([]net.Conn, 0, len(r.conns))
		for c := range r.conns {
			conns = append(conns, c)
		}
		r.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		for _, c := range conns {
			c.Close()
		}
	})
	r.wg.Wait()
}

// selfHeartbeat keeps the standby's own candidacy alive, and grants the
// primary a startup grace: until the primary's first ship (or the grace
// deadline), its lease is renewed on its behalf so a standby that boots
// first does not instantly promote over a primary that is still starting.
func (r *Receiver) selfHeartbeat() {
	defer r.wg.Done()
	graceUntil := time.Now().Add(r.opts.StartupGrace)
	t := time.NewTicker(r.opts.Lease / 4)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.elector.Heartbeat(StandbyID)
			r.mu.Lock()
			saw := r.sawShip
			r.mu.Unlock()
			if !saw && time.Now().Before(graceUntil) {
				r.elector.Heartbeat(PrimaryID)
			}
		}
	}
}

// watchPromotion promotes the standby when it becomes the delegate —
// i.e. when the primary's lease (renewed only by its ship traffic after
// the startup grace) has lapsed.
func (r *Receiver) watchPromotion() {
	defer r.wg.Done()
	ch := r.elector.Watch(r.opts.Lease/4, r.stop)
	for change := range ch {
		if change.OK && change.Delegate == StandbyID {
			r.promote()
			return
		}
	}
}

// promote closes Promoted and tears the replication listener down: from
// here the journal belongs to the daemon's local write path, and any
// straggler ship from the old primary is refused.
func (r *Receiver) promote() {
	r.promoteOnce.Do(func() {
		r.counters.Add("replica_promotions", 1)
		close(r.promoted)
	})
}

func (r *Receiver) isPromoted() bool {
	select {
	case <-r.promoted:
		return true
	default:
		return false
	}
}

func (r *Receiver) acceptLoop(ln net.Listener) {
	defer r.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go r.serveConn(conn)
	}
}

func (r *Receiver) serveConn(conn net.Conn) {
	defer r.wg.Done()
	defer func() {
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
		conn.Close()
	}()
	fs := &wire.FrameServer{
		Handle: func(req wire.Request) wire.Response {
			resp := r.handle(req)
			resp.ID = req.ID
			return resp
		},
		OnBadFrame: func() { r.counters.Add("replica_recv_bad_frames", 1) },
		MaxPayload: maxShipPayload,
	}
	fs.Serve(conn)
}

func (r *Receiver) handle(req wire.Request) wire.Response {
	switch req.Op {
	case wire.OpShipStatus:
		if r.isPromoted() {
			return wire.Response{Err: ErrPromoted.Error()}
		}
		r.elector.Heartbeat(PrimaryID)
		return wire.Response{AckSeq: r.opts.Journal.DurableSeq()}
	case wire.OpShip:
		if r.isPromoted() {
			return wire.Response{Err: ErrPromoted.Error()}
		}
		r.elector.Heartbeat(PrimaryID)
		r.mu.Lock()
		r.sawShip = true
		r.mu.Unlock()
		if err := r.absorb(req); err != nil {
			r.counters.Add("replica_recv_errors", 1)
			return wire.Response{Err: err.Error()}
		}
		return wire.Response{AckSeq: r.opts.Journal.DurableSeq()}
	case wire.OpTracePull:
		// The standby participates in the fleet tracing plane: its
		// standby-ack spans complete a replicated write's timeline.
		resp := wire.Response{Now: time.Now().UnixNano()}
		if reg := r.opts.Obs; reg != nil {
			resp.Spans = reg.Spans.ByTrace(req.Trace)
			resp.Spans = append(resp.Spans, reg.Slow.ByTrace(req.Trace)...)
			resp.Node = reg.Node()
		}
		return resp
	default:
		return wire.Response{Err: fmt.Sprintf("replica: standby serves replication only (op %q refused until promotion)", req.Op)}
	}
}

// absorb persists one ship request and folds it into the warm image map.
// Entries stamped with an originating trace get a "standby-ack" span
// (Server = the shipping daemon's ID) covering journal append + warm
// apply — durability on the standby IS the ack the primary waits on.
func (r *Receiver) absorb(req wire.Request) error {
	start := time.Now()
	if len(req.Snap) > 0 {
		images, err := journal.DecodeImages(req.Snap)
		if err != nil {
			return fmt.Errorf("replica: shipped snapshot: %w", err)
		}
		if err := r.opts.Journal.InstallSnapshot(req.SnapSeq, images); err != nil {
			return err
		}
		r.mu.Lock()
		if req.SnapSeq > r.applied {
			r.images = images
			r.applied = req.SnapSeq
			r.sinceSnap = 0
		}
		r.mu.Unlock()
		r.counters.Add("replica_recv_snapshots", 1)
		return nil
	}
	if len(req.Entries) == 0 {
		r.counters.Add("replica_recv_heartbeats", 1)
		return nil
	}
	ents := make([]journal.Shipped, len(req.Entries))
	for i, e := range req.Entries {
		ents[i] = journal.Shipped{Seq: e.Seq, Payload: e.Payload}
	}
	// Durable first, then warm state: a crash between the two replays the
	// journal on restart, so the image map can only lag the log, never
	// lead it.
	if err := r.opts.Journal.AppendShipped(ents); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	applied := 0
	for _, e := range ents {
		if e.Seq <= r.applied {
			continue // resume overlap, already applied
		}
		ent, err := journal.DecodeEntry(e.Payload)
		if err != nil {
			// AppendShipped pre-validated every payload; reaching here
			// means memory corruption, not a protocol problem.
			return fmt.Errorf("replica: entry %d: %w", e.Seq, err)
		}
		journal.Apply(r.images, ent)
		r.applied = e.Seq
		applied++
	}
	if reg := r.opts.Obs; reg != nil {
		dur := time.Since(start)
		for i := range req.Entries {
			if tr := req.Entries[i].Trace; tr != 0 {
				reg.Spans.Add(obs.Span{
					Trace: tr, Name: "standby-ack",
					Server: req.Daemon, Start: start, Dur: dur,
				})
			}
		}
	}
	r.counters.Add("replica_recv_ships", 1)
	r.counters.Add("replica_recv_entries", int64(applied))
	r.sinceSnap += applied
	if r.opts.SnapshotEvery > 0 && r.sinceSnap >= r.opts.SnapshotEvery {
		r.sinceSnap = 0
		// Safe under r.mu: Snapshot reads the map via this closure before
		// any other goroutine can mutate it (all mutations hold r.mu).
		if err := r.opts.Journal.Snapshot(func() map[string]sharedisk.Image { return r.images }); err != nil {
			return err
		}
		r.counters.Add("replica_standby_snapshots", 1)
	}
	return nil
}
