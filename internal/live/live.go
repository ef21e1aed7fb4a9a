// Package live runs a real, concurrent ANU-managed metadata cluster inside
// one process: goroutine servers with FIFO queues serve metadata operations
// against the shared disk, a router hashes file sets to servers through a
// published core.Mapper snapshot, and a tuner goroutine plays the elected
// delegate — collecting per-window latencies, rescaling mapped regions, and
// driving the file-set move protocol (release on the shedding server, then
// acquire on the gaining one).
//
// The simulator (internal/cluster) is what reproduces the paper's figures;
// this package is what a downstream user embeds to get the paper's
// self-managing behaviour in a running system. It is exercised with the
// race detector in its tests and by examples/webcluster.
package live

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"anufs/internal/core"
	"anufs/internal/election"
	"anufs/internal/lockmgr"
	"anufs/internal/metaserver"
	"anufs/internal/metrics"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
)

// Config parameterizes a live cluster.
type Config struct {
	// Core is the ANU configuration shared by the mapper and delegate.
	Core core.Config
	// Window is the delegate's measurement/tuning interval.
	Window time.Duration
	// OpCost is the service time of one metadata operation on a speed-1
	// server; a server with speed s serves in OpCost/s.
	OpCost time.Duration
	// QueueDepth bounds each server's request queue; Submit blocks when the
	// queue is full (clients experience backpressure, not drops). With
	// FairQueue on, the bound applies per tenant volume, so one tenant's
	// backlog cannot exert backpressure on another tenant's submitters.
	QueueDepth int
	// FairQueue turns each server queue into a weighted-fair scheduler
	// over tenant volumes (see taskQueue): a hot volume saturating its own
	// queue no longer starves a cold one. Off = the pre-volume global
	// FIFO. DefaultConfig enables it.
	FairQueue bool
	// RetryBudget bounds how long a request keeps retrying while the file
	// set it targets is mid-move.
	RetryBudget time.Duration
	// LockLease is the client-session lease duration for the lock service;
	// sessions not renewed within it are declared failed and their locks
	// reaped (paper §2).
	LockLease time.Duration
	// Obs is the shared observability registry (histograms, trace spans,
	// tuner decision log). Nil makes the cluster create a private one —
	// instrumentation is always on; share a registry across the wire server
	// and journal (as anufsd does) to get one unified surface.
	Obs *obs.Registry
}

// DefaultConfig returns demo-friendly defaults (fast windows so examples
// converge in seconds).
func DefaultConfig() Config {
	return Config{
		Core:        core.Defaults(),
		Window:      250 * time.Millisecond,
		OpCost:      2 * time.Millisecond,
		QueueDepth:  1024,
		FairQueue:   true,
		RetryBudget: 5 * time.Second,
		LockLease:   30 * time.Second,
	}
}

// ErrStopped is returned for operations on a stopped cluster.
var ErrStopped = errors.New("live: cluster stopped")

// Cluster counter names, exported through the obs registry.
const (
	CtrMoves      = "live_moves"
	CtrTuneRounds = "live_tune_rounds"
)

// task is one queued server operation (metadata or lock).
type task struct {
	fn    func(*server) error
	enq   time.Time
	reply chan taskResult
	// trace/op/fileSet annotate the task for span emission; trace 0 means
	// untraced (histograms still record).
	trace   uint64
	op      string
	fileSet string
}

type taskResult struct {
	err     error
	latency time.Duration
}

// server is one running metadata server.
type server struct {
	id    int
	speed float64
	ms    *metaserver.Server
	locks *lockmgr.Manager
	q     *taskQueue
	done  chan struct{}
	// observe, if non-nil, records each completion into the cluster's
	// latency series.
	observe func(id int, lat time.Duration)
	// spans receives queue-wait/apply spans for traced tasks; histLat and
	// histWait are this server's latency and queue-wait histograms
	// (resolved once at construction to keep the hot path to plain atomic
	// adds).
	spans    *obs.SpanRing
	histLat  *obs.Histogram
	histWait *obs.Histogram

	mu     sync.Mutex
	count  int
	sumLat time.Duration
	served int64
}

func (s *server) run(opCost time.Duration) {
	defer close(s.done)
	for {
		t, ok := s.q.pop()
		if !ok {
			return
		}
		deq := time.Now()
		wait := deq.Sub(t.enq)
		if d := time.Duration(float64(opCost) / s.speed); d > 0 {
			time.Sleep(d)
		}
		err := t.fn(s)
		lat := time.Since(t.enq)
		s.mu.Lock()
		s.count++
		s.sumLat += lat
		s.served++
		s.mu.Unlock()
		if s.observe != nil {
			s.observe(s.id, lat)
		}
		s.histLat.Observe(lat)
		s.histWait.Observe(wait)
		if t.trace != 0 {
			errStr := ""
			if err != nil {
				errStr = err.Error()
			}
			s.spans.Add(obs.Span{
				Trace: t.trace, Name: "queue-wait", Op: t.op, FileSet: t.fileSet,
				Server: s.id, Start: t.enq, Dur: wait,
			})
			s.spans.Add(obs.Span{
				Trace: t.trace, Name: "apply", Op: t.op, FileSet: t.fileSet,
				Server: s.id, Start: deq, Dur: lat - wait, Err: errStr,
			})
		}
		t.reply <- taskResult{err: err, latency: lat}
	}
}

// takeWindow returns and resets the window counters.
func (s *server) takeWindow() (count int, mean float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	count = s.count
	if count > 0 {
		mean = s.sumLat.Seconds() / float64(count)
	}
	s.count, s.sumLat = 0, 0
	return count, mean
}

// Cluster is the live ANU-managed metadata cluster.
type Cluster struct {
	cfg  Config
	disk sharedisk.Disk

	// obs is the observability registry (never nil after NewCluster);
	// counters holds the cluster's own counters (moves, tune rounds),
	// registered into obs.
	obs      *obs.Registry
	counters *metrics.CounterSet

	// snapshot holds an immutable *core.Mapper for lock-free routing.
	snapshot atomic.Value

	// reconfigMu serializes reconfigurations — tune rounds, commissions,
	// kills — end to end, move protocol included. Two overlapping rounds
	// would interleave their release/acquire steps: a file set moved A→B
	// by one and B→A by the other can end up held by B while the
	// published mapping routes it to A, which then answers ErrNotOwner
	// until some later round happens to move it again.
	reconfigMu sync.Mutex
	mu         sync.Mutex
	mapper     *core.Mapper // authoritative; mutated under mu
	delegate   *core.Delegate
	// elector picks which server is the delegate (paper §4). In this
	// in-process cluster every live server heartbeats implicitly at each
	// tuning round; the epoch detects failovers so divergent-tuning state
	// is reset exactly when the paper says the policy must be skipped.
	elector       *election.Elector
	delegateEpoch uint64
	servers       map[int]*server
	// collector accumulates the per-window latency series the paper's
	// figures plot, for live observability (LatencySeries). Guarded by
	// collectorMu, not mu, to keep the completion path off the big lock.
	collectorMu sync.Mutex
	collector   *metrics.Collector
	startedAt   time.Time
	// graveyard holds killed servers: their goroutines keep draining their
	// queues (replying ErrNotOwner after the crash) until Stop closes them.
	graveyard []*server
	// volWeights is the current per-volume WFQ weight table, applied to
	// every server queue (and to servers commissioned later).
	volWeights map[string]float64
	moves      int64
	stopped    bool
	tunerWG    sync.WaitGroup
	// submitters tracks in-flight queue sends so Stop can close the server
	// channels only once no sender can touch them.
	submitters sync.WaitGroup
	stopCh     chan struct{}
}

// NewCluster creates a cluster over the shared disk with the given server
// speeds (id → relative power). Every file set already on the disk is
// acquired by its hash-designated owner before NewCluster returns. Pass a
// sharedisk.Durable to make every flush survive a daemon crash.
func NewCluster(cfg Config, disk sharedisk.Disk, speeds map[int]float64) (*Cluster, error) {
	if cfg.Window <= 0 || cfg.QueueDepth <= 0 {
		return nil, fmt.Errorf("live: invalid config %+v", cfg)
	}
	ids := make([]int, 0, len(speeds))
	for id, sp := range speeds {
		if sp <= 0 {
			return nil, fmt.Errorf("live: server %d has non-positive speed", id)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	m, err := core.NewMapper(cfg.Core, ids)
	if err != nil {
		return nil, err
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	c := &Cluster{
		cfg:       cfg,
		disk:      disk,
		obs:       cfg.Obs,
		counters:  metrics.NewCounterSet(),
		mapper:    m,
		delegate:  core.NewDelegate(cfg.Core),
		elector:   election.New(3*cfg.Window+time.Second, nil),
		servers:   map[int]*server{},
		collector: metrics.NewCollector(cfg.Window.Seconds()),
		startedAt: time.Now(),
		stopCh:    make(chan struct{}),
	}
	c.obs.AddCounters(c.counters.Snapshot)
	c.obs.AddGauges(c.gauges)
	for _, id := range ids {
		c.servers[id] = c.newServer(id, speeds[id])
		c.elector.Heartbeat(id)
	}
	if _, epoch, ok := c.elector.Delegate(); ok {
		c.delegateEpoch = epoch
	}
	c.snapshot.Store(m.Clone())
	// Initial ownership: each file set is acquired by its mapped owner.
	for _, fs := range disk.FileSets() {
		owner := m.Owner(fs)
		if err := c.servers[owner].ms.Acquire(fs); err != nil {
			return nil, err
		}
	}
	c.tunerWG.Add(1)
	go c.tuneLoop()
	return c, nil
}

func (c *Cluster) newServer(id int, speed float64) *server {
	label := fmt.Sprintf("server=%q", strconv.Itoa(id))
	s := &server{
		id:       id,
		speed:    speed,
		ms:       metaserver.New(id, c.disk),
		locks:    lockmgr.New(c.cfg.LockLease, nil),
		q:        newTaskQueue(c.cfg.FairQueue, c.cfg.QueueDepth),
		done:     make(chan struct{}),
		observe:  c.observe,
		spans:    c.obs.Spans,
		histLat:  c.obs.Hist.Get("live_latency_seconds", label),
		histWait: c.obs.Hist.Get("live_queue_wait_seconds", label),
	}
	if c.volWeights != nil {
		s.q.setWeights(c.volWeights)
	}
	go s.run(c.cfg.OpCost)
	return s
}

// SetVolumeWeights installs the per-volume WFQ weight table on every
// server queue (volumes not listed get weight 1). In fleet mode the
// member calls this whenever it adopts a newer volume registry, so quota
// changes published by the authority reshape scheduling fleet-wide.
func (c *Cluster) SetVolumeWeights(w map[string]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.volWeights = w
	for _, s := range c.servers {
		s.q.setWeights(w)
	}
	for _, s := range c.graveyard {
		s.q.setWeights(w)
	}
}

// Stop shuts the cluster down: the tuner exits, in-flight submissions
// finish, and the server queues drain.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	close(c.stopCh)
	servers := make([]*server, 0, len(c.servers)+len(c.graveyard))
	for _, s := range c.servers {
		servers = append(servers, s)
	}
	servers = append(servers, c.graveyard...)
	c.mu.Unlock()
	// Close the queues first: blocked pushers (including the tuner mid-
	// reconfig) wake with ErrStopped, while already-queued tasks still
	// drain and get their replies.
	for _, s := range servers {
		s.q.close()
	}
	c.tunerWG.Wait()
	c.submitters.Wait()
	for _, s := range servers {
		<-s.done
	}
}

// CreateFileSet initializes a new file set on shared disk and assigns it to
// its hash-designated owner.
func (c *Cluster) CreateFileSet(fileSet string) error {
	if err := c.disk.CreateFileSet(fileSet); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return ErrStopped
	}
	owner := c.mapper.Owner(fileSet)
	return c.servers[owner].ms.Acquire(fileSet)
}

// ReleaseFileSet flushes a file set (if dirty) and stops serving it — the
// donor half of a fleet handoff. The release runs through the owner's
// queue, so it serializes behind every operation the fleet gate already
// admitted; when it returns nil, the shared-disk image is the consistent
// cut the recipient adopts. Client locks on the file set are dropped, not
// transferred (same semantics as an intra-cluster move).
func (c *Cluster) ReleaseFileSet(fileSet string) error {
	return c.do(fileSet, func(s *server) error {
		s.locks.DropFileSet(fileSet)
		return s.ms.Release(fileSet)
	})
}

// AdoptFileSet starts serving a file set whose image already exists on this
// cluster's shared disk — the recipient half of a fleet handoff (the fleet
// layer installs the image first, then adopts). The mapper-designated owner
// acquires it, exactly as CreateFileSet assigns new file sets.
func (c *Cluster) AdoptFileSet(fileSet string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return ErrStopped
	}
	owner := c.mapper.Owner(fileSet)
	return c.servers[owner].ms.Acquire(fileSet)
}

// Obs returns the cluster's observability registry (never nil): the one
// passed in Config.Obs, or the private one NewCluster created.
func (c *Cluster) Obs() *obs.Registry { return c.obs }

// gauges snapshots the per-server gauges exported on /metrics.
func (c *Cluster) gauges() []obs.Gauge {
	stats := c.Stats()
	out := make([]obs.Gauge, 0, 4*len(stats))
	for _, st := range stats {
		label := fmt.Sprintf("server=%q", strconv.Itoa(st.ID))
		out = append(out,
			obs.Gauge{Name: "server_speed", Labels: label, Value: st.Speed},
			obs.Gauge{Name: "server_share_frac", Labels: label, Value: st.ShareFrac},
			obs.Gauge{Name: "server_served_total", Labels: label, Value: float64(st.Served)},
			obs.Gauge{Name: "server_owned_filesets", Labels: label, Value: float64(len(st.Owned))},
		)
	}
	return out
}

// do routes an operation to the file set's owner, retrying while the file
// set is mid-move (the new owner has not finished acquiring it yet) — the
// client-visible cost of a move, which the paper bounds at 5–10 s.
func (c *Cluster) do(fileSet string, fn func(*server) error) error {
	return c.doT(0, "", fileSet, fn)
}

// doT is do carrying trace annotations: trace is the request trace ID (0 =
// untraced) and op names the operation for span labels. fn runs as a task
// on the owner's queue.
func (c *Cluster) doT(trace uint64, op, fileSet string, fn func(*server) error) error {
	return c.withOwner(fileSet, func(srv *server) error {
		t := task{fn: fn, enq: time.Now(), reply: make(chan taskResult, 1), trace: trace, op: op, fileSet: fileSet}
		if err := srv.q.push(t); err != nil {
			return err
		}
		return (<-t.reply).err
	})
}

// withOwner runs call against the file set's current owner, retrying
// through ErrNotOwner with backoff until the retry budget runs out or the
// cluster stops. call runs on the caller's goroutine; doT's call queues a
// task, a checkpoint's call flushes inline.
func (c *Cluster) withOwner(fileSet string, call func(*server) error) error {
	deadline := time.Now().Add(c.cfg.RetryBudget)
	backoff := time.Millisecond
	for {
		err := c.callOwnerOnce(fileSet, call)
		if !errors.Is(err, metaserver.ErrNotOwner) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("live: file set %q unavailable past retry budget: %w", fileSet, err)
		}
		select {
		case <-time.After(backoff):
		case <-c.stopCh:
			return ErrStopped
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// callOwnerOnce resolves the file set's owner from the published mapping
// and runs call against it once, counted in submitters so Stop waits for
// it.
func (c *Cluster) callOwnerOnce(fileSet string, call func(*server) error) error {
	owner := c.snapshot.Load().(*core.Mapper).Owner(fileSet)
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return ErrStopped
	}
	srv, ok := c.servers[owner]
	if !ok {
		c.mu.Unlock()
		return metaserver.ErrNotOwner
	}
	c.submitters.Add(1)
	c.mu.Unlock()
	defer c.submitters.Done()
	return call(srv)
}

// Create adds a metadata record.
func (c *Cluster) Create(fileSet, path string, rec sharedisk.Record) error {
	return c.do(fileSet, func(s *server) error { return s.ms.Create(fileSet, path, rec) })
}

// Stat reads a metadata record.
func (c *Cluster) Stat(fileSet, path string) (sharedisk.Record, error) {
	var rec sharedisk.Record
	err := c.do(fileSet, func(s *server) error {
		r, e := s.ms.Stat(fileSet, path)
		rec = r
		return e
	})
	return rec, err
}

// Update overwrites a metadata record.
func (c *Cluster) Update(fileSet, path string, rec sharedisk.Record) error {
	return c.do(fileSet, func(s *server) error { return s.ms.Update(fileSet, path, rec) })
}

// Remove deletes a metadata record.
func (c *Cluster) Remove(fileSet, path string) error {
	return c.do(fileSet, func(s *server) error { return s.ms.Remove(fileSet, path) })
}

// List returns paths under a prefix.
func (c *Cluster) List(fileSet, prefix string) ([]string, error) {
	var out []string
	err := c.do(fileSet, func(s *server) error {
		l, e := s.ms.List(fileSet, prefix)
		out = l
		return e
	})
	return out, err
}

// Checkpoint flushes one file set's dirty state to shared disk without
// releasing ownership. It runs on the caller's goroutine against the
// owner's metaserver, not through the owner's queue: while it waits for
// the journal, the owner keeps serving its other operations, and
// concurrent checkpoints reach the journal together and share its fsync.
func (c *Cluster) Checkpoint(fileSet string) error {
	return c.WithTrace(0).Checkpoint(fileSet)
}

// CheckpointAll checkpoints every file set — the durability barrier behind
// the wire "sync" op: when it returns nil, everything created or updated
// before the call is on shared disk (and, with a Durable store, in the
// journal). Clean file sets are no-ops.
func (c *Cluster) CheckpointAll() error {
	return c.WithTrace(0).CheckpointAll()
}

// Traced is a view of the cluster whose operations are attributed to one
// request trace: each queued task emits queue-wait/apply spans under the
// trace ID, and a traced Checkpoint threads the ID down to the journal so
// its group-commit wait and fsync join the same timeline. Obtain one with
// WithTrace; the zero trace ID is the untraced sentinel.
type Traced struct {
	c     *Cluster
	trace uint64
}

// WithTrace returns a view of the cluster attributing operations to trace.
func (c *Cluster) WithTrace(trace uint64) Traced { return Traced{c: c, trace: trace} }

// Create is Cluster.Create under the view's trace.
func (v Traced) Create(fileSet, path string, rec sharedisk.Record) error {
	return v.c.doT(v.trace, "create", fileSet, func(s *server) error { return s.ms.Create(fileSet, path, rec) })
}

// Stat is Cluster.Stat under the view's trace.
func (v Traced) Stat(fileSet, path string) (sharedisk.Record, error) {
	var rec sharedisk.Record
	err := v.c.doT(v.trace, "stat", fileSet, func(s *server) error {
		r, e := s.ms.Stat(fileSet, path)
		rec = r
		return e
	})
	return rec, err
}

// Update is Cluster.Update under the view's trace.
func (v Traced) Update(fileSet, path string, rec sharedisk.Record) error {
	return v.c.doT(v.trace, "update", fileSet, func(s *server) error { return s.ms.Update(fileSet, path, rec) })
}

// Remove is Cluster.Remove under the view's trace.
func (v Traced) Remove(fileSet, path string) error {
	return v.c.doT(v.trace, "remove", fileSet, func(s *server) error { return s.ms.Remove(fileSet, path) })
}

// List is Cluster.List under the view's trace.
func (v Traced) List(fileSet, prefix string) ([]string, error) {
	var out []string
	err := v.c.doT(v.trace, "list", fileSet, func(s *server) error {
		l, e := s.ms.List(fileSet, prefix)
		out = l
		return e
	})
	return out, err
}

// Checkpoint is Cluster.Checkpoint under the view's trace: the flush is
// journaled under the trace ID, so the request's span timeline includes the
// group-commit wait and fsync it rode.
func (v Traced) Checkpoint(fileSet string) error {
	return v.c.withOwner(fileSet, func(s *server) error {
		return s.ms.CheckpointTraced(v.trace, fileSet)
	})
}

// CheckpointEach checkpoints the file sets concurrently and returns their
// errors index-aligned with fileSets: the flushes reach the journal
// together, so they share a group commit instead of each paying its own
// gather window and fsync.
func (v Traced) CheckpointEach(fileSets []string) []error {
	errs := make([]error, len(fileSets))
	var wg sync.WaitGroup
	for i, fs := range fileSets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = v.Checkpoint(fs)
		}()
	}
	wg.Wait()
	return errs
}

// CheckpointAll is Cluster.CheckpointAll under the view's trace.
func (v Traced) CheckpointAll() error {
	for _, err := range v.CheckpointEach(v.c.disk.FileSets()) {
		if err != nil {
			return err
		}
	}
	return nil
}

// Owner reports which server currently serves the file set.
func (c *Cluster) Owner(fileSet string) int {
	return c.snapshot.Load().(*core.Mapper).Owner(fileSet)
}

// MappingConfig serializes the current routing configuration — the
// replicated state of §4/§5. A client holding it routes identically to the
// cluster (see core.RouterFromConfig) until the next reconfiguration.
func (c *Cluster) MappingConfig() ([]byte, error) {
	return c.snapshot.Load().(*core.Mapper).MarshalConfig()
}

// Servers returns the live server IDs.
func (c *Cluster) Servers() []int {
	return c.snapshot.Load().(*core.Mapper).Servers()
}

// Moves reports the total number of file-set movements performed.
func (c *Cluster) Moves() int64 { return atomic.LoadInt64(&c.moves) }

// ServerStats is an observability snapshot for one server.
type ServerStats struct {
	ID        int
	Speed     float64
	ShareFrac float64
	Served    int64
	Owned     []string
}

// Stats snapshots per-server state, sorted by ID.
func (c *Cluster) Stats() []ServerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ServerStats, 0, len(c.servers))
	for id, s := range c.servers {
		s.mu.Lock()
		served := s.served
		s.mu.Unlock()
		frac, _ := c.mapper.ShareFrac(id)
		out = append(out, ServerStats{
			ID:        id,
			Speed:     s.speed,
			ShareFrac: frac,
			Served:    served,
			Owned:     s.ms.Owned(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// observe records one completion into the live latency series.
func (c *Cluster) observe(id int, lat time.Duration) {
	at := time.Since(c.startedAt).Seconds()
	c.collectorMu.Lock()
	c.collector.Observe(id, at, lat.Seconds())
	c.collectorMu.Unlock()
}

// LatencySeries snapshots the per-server, per-window latency series
// collected since the cluster started — the live analogue of the
// simulator's figure data. Window length equals the tuning Window.
func (c *Cluster) LatencySeries() *metrics.Series {
	c.collectorMu.Lock()
	defer c.collectorMu.Unlock()
	return c.collector.Series(0)
}

// tuneLoop is the delegate: every Window it collects latency reports, runs
// one ANU round, publishes the new mapping, and applies the moves.
func (c *Cluster) tuneLoop() {
	defer c.tunerWG.Done()
	ticker := time.NewTicker(c.cfg.Window)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-ticker.C:
			c.TuneOnce()
		}
	}
}

// TuneOnce runs a single delegate round immediately (also used by tests to
// make tuning deterministic).
func (c *Cluster) TuneOnce() {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	reports := make([]core.LatencyReport, 0, len(c.servers))
	for id, s := range c.servers {
		n, mean := s.takeWindow()
		reports = append(reports, core.LatencyReport{ServerID: id, MeanLatency: mean, Requests: n})
		c.elector.Heartbeat(id)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].ServerID < reports[j].ServerID })
	// Run the election: a new delegate has no memory of the previous
	// interval, so divergent tuning is skipped for one round (paper §6).
	if _, epoch, ok := c.elector.Delegate(); ok && epoch != c.delegateEpoch {
		c.delegateEpoch = epoch
		c.delegate.ResetState()
	}
	before := c.mapper.Clone()
	res, err := c.delegate.Update(c.mapper, reports)
	if err != nil {
		// A failed round leaves the previous configuration in place; the
		// next window retries with fresh reports.
		c.mu.Unlock()
		return
	}
	c.counters.Add(CtrTuneRounds, 1)
	// Record the decision when the round saw traffic or acted; idle rounds
	// would only flood the ring.
	if res.Aggregate > 0 || res.Tuned {
		ev := obs.EventFromUpdate(res)
		ev.At = time.Now()
		ev.Policy = "anu"
		c.obs.Tuner.Add(ev)
	}
	c.finishReconfigLocked(before)
}

// finishReconfigLocked publishes the new mapping and applies the move
// protocol. Called with mu held; releases it.
func (c *Cluster) finishReconfigLocked(before *core.Mapper) {
	after := c.mapper.Clone()
	moves := core.Moves(before, after, c.disk.FileSets())
	servers := make(map[int]*server, len(c.servers))
	for id, s := range c.servers {
		servers[id] = s
	}
	c.submitters.Add(1)
	c.mu.Unlock()
	defer c.submitters.Done()

	// Publish first: new requests route to the new owners and wait out the
	// move; then release/acquire per moved file set.
	c.snapshot.Store(after)
	for _, mv := range moves {
		atomic.AddInt64(&c.moves, 1)
		c.counters.Add(CtrMoves, 1)
		if from, ok := servers[mv.From]; ok {
			// Serialize the release behind the old owner's queued work by
			// routing it through the queue like any other task.
			t := task{
				fn: func(s *server) error {
					// Locks do not travel with the file set: clients
					// re-acquire against the new owner (paper §2 semantics
					// mirror the cache flush).
					s.locks.DropFileSet(mv.Name)
					return s.ms.Release(mv.Name)
				},
				enq:     time.Now(),
				reply:   make(chan taskResult, 1),
				fileSet: mv.Name,
			}
			if err := from.q.push(t); err != nil {
				return
			}
			<-t.reply
		}
		if to, ok := servers[mv.To]; ok {
			// Acquire directly: the gaining server can load the image
			// concurrently with serving its other file sets.
			_ = to.ms.Acquire(mv.Name)
		}
	}
}

// AddServer commissions a new server with the given speed. Existing servers
// shed proportionally; only the moved file sets change owners.
func (c *Cluster) AddServer(id int, speed float64) error {
	if speed <= 0 {
		return fmt.Errorf("live: non-positive speed")
	}
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return ErrStopped
	}
	if _, dup := c.servers[id]; dup {
		c.mu.Unlock()
		return fmt.Errorf("live: server %d already present", id)
	}
	before := c.mapper.Clone()
	if err := c.mapper.AddServer(id, 0); err != nil {
		c.mu.Unlock()
		return err
	}
	c.servers[id] = c.newServer(id, speed)
	c.elector.Heartbeat(id)
	c.finishReconfigLocked(before)
	return nil
}

// Kill crashes a server: unflushed state is lost, survivors take over from
// the last flushed images, and — per the paper — only the victim's file
// sets move. If the killed server was the delegate (lowest ID), the next
// delegate starts without divergent-tuning history, exactly the stateless
// failover of §4.
func (c *Cluster) Kill(id int) error {
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return ErrStopped
	}
	victim, ok := c.servers[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("live: unknown server %d", id)
	}
	if len(c.servers) == 1 {
		c.mu.Unlock()
		return fmt.Errorf("live: cannot kill the last server")
	}
	before := c.mapper.Clone()
	if err := c.mapper.RemoveServer(id); err != nil {
		c.mu.Unlock()
		return err
	}
	delete(c.servers, id)
	c.graveyard = append(c.graveyard, victim)
	// Crash drops ownership without flushing; anything still queued on the
	// victim replies ErrNotOwner and clients retry against the survivors.
	victim.ms.Crash()
	c.elector.Leave(id)
	// If the victim was the delegate, the next elected delegate starts
	// without divergent-tuning history (stateless failover, §4).
	if _, epoch, ok := c.elector.Delegate(); ok && epoch != c.delegateEpoch {
		c.delegateEpoch = epoch
		c.delegate.ResetState()
	}
	c.finishReconfigLocked(before)
	return nil
}
