package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"anufs/internal/obs"
	"anufs/internal/rng"
	"anufs/internal/sdk"
	"anufs/internal/sharedisk"
	"anufs/internal/trace"
	"anufs/internal/wire"
)

// Data set: the paper's 21 file sets (trace.DefaultDFSLike), each
// preloaded with recordsPerSet records. A durable checkpoint writes the
// whole image, so this size sets the checkpoint cost.
const (
	recordsPerSet = 256
	// conns is the number of client connections to the first hop.
	conns = 2
	// genLagLimit is the benchmark's own bound on open-loop generator
	// lateness: a request dispatched later than this past its due time
	// counts as failed, not as fast. Dispatch never blocks, so lag comes
	// only from the process not being scheduled; a shared host stalls a
	// process for tens of milliseconds at times, which the latency (timed from
	// the due time) already shows. The bound sits well above such stalls so
	// that a clean run has no failed requests.
	genLagLimit = time.Second
	// openWorkers bounds the open-loop requests in flight.
	openWorkers = 256
	// readbackRate is the read-back's offered stat rate.
	readbackRate = 4000
)

// workload is one traffic mix. Each round of a run has a closed-loop
// phase at a fixed in-flight window (goodput) and an open-loop phase at a
// fixed offered rate (latency, timed from each request's due time).
type workload struct {
	name string
	why  string
	// statFrac is the share of stats; the rest are updates.
	statFrac float64
	// durable updates are acknowledged only once journaled (and, on d0,
	// acked by the standby).
	durable bool
	// viaGateway routes through the sdk gateway over raw pipelined
	// connections; otherwise an sdk.Client talks to the daemons directly
	// with client-side batching.
	viaGateway bool
	window     int           // closed-loop in-flight requests (divides recordsPerSet)
	rate       float64       // open-loop offered ops/s
	limit      time.Duration // goodput latency limit
	// handoffEvery moves a seeded file set between the daemons with
	// Authority.Assign at this period (0 = no moves).
	handoffEvery time.Duration
	// readback stats every record, open loop at readbackRate, a quarter
	// after each open-loop slice (the workload's stat latency and its
	// read-your-writes check when it issues no stats).
	readback bool
	// batchDelay is the sdk client's coalescing window (sdk.Client only).
	batchDelay time.Duration
}

var workloads = []workload{
	{
		name:       "meta-read",
		why:        "95% stat / 5% in-memory update via the gateway: wire, gateway, router, gate and owner queue work; journal and replica idle",
		statFrac:   0.95,
		viaGateway: true,
		window:     32,
		rate:       3000,
		limit:      25 * time.Millisecond,
	},
	{
		name:       "durable-write",
		why:        "100% durable updates via sdk.Client batching to the daemons: batcher, checkpoint flush, group commit, fsync, snapshots, standby ack",
		durable:    true,
		window:     64,
		rate:       150,
		limit:      500 * time.Millisecond,
		readback:   true,
		batchDelay: time.Millisecond,
	},
	{
		name:         "handoff-mixed",
		why:          "80% stat / 20% durable update via the gateway while file sets move every 250ms: handoff, retries, reads queued behind checkpoints",
		statFrac:     0.80,
		durable:      true,
		viaGateway:   true,
		window:       32,
		rate:         400,
		limit:        500 * time.Millisecond,
		handoffEvery: 250 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one generated request: a stat or an update of one record.
type op struct {
	stat bool
	fs   uint8
	rec  uint16
}

// plan is every input a run sends, generated from the seed before the
// stack boots so generator buffers are allocated up front.
type plan struct {
	fileSets []string
	// place puts each file set on a daemon so that both get half the
	// requests (over all rounds): the seed changes which file sets are hot,
	// not how much load each daemon carries.
	place  map[string]int
	closed [][][]op // per round, per closed-loop worker; worker g only touches records ≡ g (mod window)
	open   []op
	// readback is a stat of every record, in seeded order.
	readback []op
	moves    []uint8 // handoff schedule: file set index per move
}

// rounds is how many times a run alternates its closed-loop and
// open-loop phases. Each phase's samples then come from the whole run, not
// one stretch of it, which evens out a shared machine's slow drifts; and
// each round draws its own file-set popularity, so one run averages
// several draws and a seed's choice of hot file sets moves it less.
const rounds = 4

// closedOpsPerWorker is each closed-loop worker's pre-generated request
// list per round; a worker that exhausts it starts over (the record
// versions it writes keep increasing, so wrapped requests are still
// distinct writes).
const closedOpsPerWorker = 4096

// makePlan draws the run's requests from the seed. Each round's file-set
// popularity is one trace.GenerateDFSLike draw (21 file sets, >=100x
// skew): its requests take the file sets of successive trace requests.
func makePlan(w workload, seed uint64, openSeconds float64, moves int) *plan {
	r := rng.NewStream(seed)
	p := &plan{closed: make([][][]op, rounds), open: make([]op, int(math.Round(w.rate*openSeconds)))}
	counts := map[string]int{}
	var index map[string]uint8
	per := recordsPerSet / w.window
	for k := range p.closed {
		tr := trace.GenerateDFSLike(trace.DefaultDFSLike(r.Uint64()))
		if index == nil {
			p.fileSets = tr.FileSets()
			index = make(map[string]uint8, len(p.fileSets))
			for i, n := range p.fileSets {
				index[n] = uint8(i)
			}
		}
		for fs, n := range tr.CountByFileSet() {
			counts[fs] += n
		}
		next := 0
		fsOf := func() uint8 {
			fs := index[tr.Requests[next%len(tr.Requests)].FileSet]
			next++
			return fs
		}
		p.closed[k] = make([][]op, w.window)
		for g := range p.closed[k] {
			gr := r.Split()
			ops := make([]op, closedOpsPerWorker)
			for i := range ops {
				ops[i] = op{stat: gr.Float64() < w.statFrac, fs: fsOf(), rec: uint16(g + w.window*gr.Intn(per))}
			}
			p.closed[k][g] = ops
		}
		or := r.Split()
		for i := k * len(p.open) / rounds; i < (k+1)*len(p.open)/rounds; i++ {
			p.open[i] = op{stat: or.Float64() < w.statFrac, fs: fsOf(), rec: uint16(or.Intn(recordsPerSet))}
		}
	}
	p.place = balance(p.fileSets, counts)
	br := r.Split()
	p.readback = make([]op, len(p.fileSets)*recordsPerSet)
	for i, k := range br.Perm(len(p.readback)) {
		p.readback[i] = op{stat: true, fs: uint8(k / recordsPerSet), rec: uint16(k % recordsPerSet)}
	}
	mr := r.Split()
	p.moves = make([]uint8, moves)
	for i := range p.moves {
		p.moves[i] = uint8(mr.Intn(len(p.fileSets)))
	}
	return p
}

// balance assigns file sets to the two daemons greedily, busiest first,
// each to the daemon with fewer requests so far.
func balance(names []string, counts map[string]int) map[string]int {
	order := append([]string(nil), names...)
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
	place := make(map[string]int, len(order))
	var load [2]int
	for _, fs := range order {
		d := 0
		if load[1] < load[0] {
			d = 1
		}
		place[fs] = d
		load[d] += counts[fs]
	}
	return place
}

// recordPath and recordValue define the data set. A record's Size holds
// its version: 0 after preload, n after its n-th update.
var recordPaths = func() []string {
	out := make([]string, recordsPerSet)
	for i := range out {
		out[i] = fmt.Sprintf("/r%03d", i)
	}
	return out
}()

func recordPath(i int) string { return recordPaths[i] }

func recordValue(i int, version int64) sharedisk.Record {
	return sharedisk.Record{
		Size: version, Mode: 0o644, Owner: "perfbench",
		ModTime: time.Unix(1_000_000_000+int64(i), 0).UTC(),
	}
}

// expected tracks, per record, the last acknowledged version. Every record
// has exactly one writer at a time (closed loop: its owning worker; open
// loop: requests on one record are chained), so the value a stat must
// return is unambiguous. An update that failed may or may not have
// applied; its version is remembered as maybe until a stat settles it.
type expected struct {
	acked []int64
	maybe []int64
}

func newExpected(fileSets int) *expected {
	n := fileSets * recordsPerSet
	return &expected{acked: make([]int64, n), maybe: make([]int64, n)}
}

func key(o op) int { return int(o.fs)*recordsPerSet + int(o.rec) }

// matches reports whether a read version is one the record may hold, and
// settles an outstanding maybe.
func (e *expected) matches(k int, got int64) bool {
	switch {
	case got == e.acked[k]:
		e.maybe[k] = 0
		return true
	case e.maybe[k] != 0 && got == e.maybe[k]:
		e.acked[k], e.maybe[k] = got, 0
		return true
	}
	return false
}

func (e *expected) nextVersion(k int) int64 { return max(e.acked[k], e.maybe[k]) + 1 }

func (e *expected) settle(k int, version int64, ok bool) {
	if ok {
		e.acked[k], e.maybe[k] = version, 0
	} else {
		e.maybe[k] = version
	}
}

// client issues the benchmark's requests against the first hop.
type client interface {
	stat(lane int, fs, path string) (int64, error)
	update(lane int, fs, path string, rec sharedisk.Record) error
	close()
}

// gatewayClient sends raw requests over pipelined connections to the
// gateway; lane picks the connection.
type gatewayClient struct {
	conns   [conns]*sdk.Conn
	durable bool
}

func dialGateway(addr string, durable bool, opts sdk.Options) (*gatewayClient, error) {
	c := &gatewayClient{durable: durable}
	for i := range c.conns {
		conn, err := sdk.Dial(addr, opts)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("dial gateway: %w", err)
		}
		c.conns[i] = conn
	}
	return c, nil
}

func (c *gatewayClient) stat(lane int, fs, path string) (int64, error) {
	resp, err := c.conns[lane%conns].Call(wire.Request{Op: wire.OpStat, FileSet: fs, Path: path})
	if err != nil {
		return 0, err
	}
	if resp.Record == nil {
		return 0, errors.New("stat returned no record")
	}
	return resp.Record.Size, nil
}

func (c *gatewayClient) update(lane int, fs, path string, rec sharedisk.Record) error {
	conn := c.conns[lane%conns]
	if !c.durable {
		_, err := conn.Call(wire.Request{Op: wire.OpUpdate, FileSet: fs, Path: path, Record: &rec})
		return err
	}
	// A durable update is a one-item checkpointing batch.
	resp, err := conn.Call(wire.Request{Op: wire.OpBatch, FileSet: fs, Durable: true,
		Batch: []wire.BatchItem{{Op: wire.OpUpdate, Path: path, Record: &rec}}})
	if err != nil {
		return err
	}
	if len(resp.Results) != 1 {
		return fmt.Errorf("durable update got %d results", len(resp.Results))
	}
	return batchErr(resp.Results)
}

func (c *gatewayClient) close() {
	for _, conn := range c.conns {
		if conn != nil {
			conn.Close()
		}
	}
}

// sdkClient is the fleet-aware sdk client with one pooled connection per
// daemon (two connections in all) and client-side batching.
type sdkClient struct{ c *sdk.Client }

func (c sdkClient) stat(_ int, fs, path string) (int64, error) {
	rec, err := c.c.Stat(fs, path)
	return rec.Size, err
}

func (c sdkClient) update(_ int, fs, path string, rec sharedisk.Record) error {
	return c.c.Update(fs, path, rec)
}

func (c sdkClient) close() { c.c.Close() }

// tally counts one phase's outcomes. good counts requests that succeeded
// (in the closed loop: within the latency limit); updates counts
// acknowledged updates.
type tally struct {
	attempted, failed, good, updates int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.good += o.good
	t.updates += o.updates
}

// runner executes requests and checks every answer.
type runner struct {
	cl    client
	p     *plan
	exp   *expected
	limit time.Duration
	// rttStat and rttWrite time every request from send to answer.
	rttStat, rttWrite *obs.Histogram
	// mismatches counts stats that returned a version other than the last
	// acknowledged one: wrong answers, not just failed requests.
	mismatches atomic.Int64
}

func newRunner(cl client, p *plan, exp *expected, limit time.Duration) *runner {
	return &runner{cl: cl, p: p, exp: exp, limit: limit, rttStat: obs.NewHistogram(), rttWrite: obs.NewHistogram()}
}

// do executes one request and reports whether it succeeded with a correct
// answer, and its round-trip time.
func (r *runner) do(lane int, o op) (bool, time.Duration, error) {
	k := key(o)
	fs, path := r.p.fileSets[o.fs], recordPath(int(o.rec))
	start := time.Now()
	if o.stat {
		got, err := r.cl.stat(lane, fs, path)
		rtt := time.Since(start)
		r.rttStat.Observe(rtt)
		if err != nil {
			return false, rtt, err
		}
		if !r.exp.matches(k, got) {
			r.mismatches.Add(1)
			return false, rtt, fmt.Errorf("stat %s%s returned version %d, last acknowledged %d", fs, path, got, r.exp.acked[k])
		}
		return true, rtt, nil
	}
	v := r.exp.nextVersion(k)
	err := r.cl.update(lane, fs, path, recordValue(int(o.rec), v))
	rtt := time.Since(start)
	r.rttWrite.Observe(rtt)
	r.exp.settle(k, v, err == nil)
	return err == nil, rtt, err
}

// errLog keeps the first few failures for the report.
type errLog struct {
	mu   sync.Mutex
	errs []error
}

func (l *errLog) add(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.errs) < 5 {
		l.errs = append(l.errs, err)
	}
}

// goodputSlice is the length of the closed-loop slices goodput is read
// over.
const goodputSlice = 500 * time.Millisecond

// closedResult is the closed-loop phase's outcome.
type closedResult struct {
	tally
	// rates is the goodput (requests answered correctly within the
	// latency limit per second) of each consecutive slice of the phase.
	rates []float64
}

func (c *closedResult) add(o closedResult) {
	c.tally.add(o.tally)
	c.rates = append(c.rates, o.rates...)
}

// goodput is the median slice goodput: robust to a slice that a transient
// stall of a shared machine slowed down.
func (c closedResult) goodput() float64 {
	r := append([]float64(nil), c.rates...)
	sort.Float64s(r)
	if len(r) == 0 {
		return 0
	}
	if len(r)%2 == 1 {
		return r[len(r)/2]
	}
	return (r[len(r)/2-1] + r[len(r)/2]) / 2
}

// closedLoop runs round's closed-loop workers for d: each sends its next
// request only after the previous one completes.
func (r *runner) closedLoop(round int, d time.Duration, log *errLog) closedResult {
	workers := r.p.closed[round]
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		good  atomic.Int64
		parts = make([]tally, len(workers))
	)
	for g, ops := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &parts[g]
			for k := 0; !stop.Load(); k++ {
				o := ops[k%len(ops)]
				ok, lat, err := r.do(g, o)
				t.attempted++
				switch {
				case !ok:
					t.failed++
					log.add(err)
				case lat <= r.limit:
					t.good++
					good.Add(1)
				}
				if ok && !o.stat {
					t.updates++
				}
			}
		}()
	}
	var res closedResult
	start := time.Now()
	last, lastAt := int64(0), start
	for time.Since(start) < d {
		time.Sleep(min(goodputSlice, d-time.Since(start)))
		now, n := time.Now(), good.Load()
		if now.Sub(lastAt) >= goodputSlice/2 {
			res.rates = append(res.rates, float64(n-last)/now.Sub(lastAt).Seconds())
		}
		last, lastAt = n, now
	}
	stop.Store(true)
	wg.Wait()
	for _, t := range parts {
		res.tally.add(t)
	}
	// The first slice is the ramp-up: every worker starts at once, and the
	// first batches fold more than the steady state does.
	if len(res.rates) > 1 {
		res.rates = res.rates[1:]
	}
	return res
}

// openResult holds the open-loop phase's per-request outcomes.
type openResult struct {
	tally
	ops []op
	lat []time.Duration // per request, from its due time to completion
	lag []time.Duration // per request, dispatch time minus due time
	ok  []bool
}

func newOpenResult(ops []op) *openResult {
	n := len(ops)
	return &openResult{ops: ops, lat: make([]time.Duration, n), lag: make([]time.Duration, n), ok: make([]bool, n)}
}

// count fills the tally once every request has run.
func (o *openResult) count() {
	for i, ok := range o.ok {
		o.attempted++
		if ok {
			o.good++
			if !o.ops[i].stat {
				o.updates++
			}
		} else {
			o.failed++
		}
	}
}

// openLoop sends requests lo..hi-1 of the open-loop schedule, request i at
// start + (i-lo)/rate, whether or not earlier ones have completed.
// Requests on one record are chained, so a record never has two requests
// in flight; a chained request's latency includes its wait, as it would
// for a client.
func (r *runner) openLoop(res *openResult, lo, hi int, rate float64, log *errLog) {
	queue := make(chan int, hi-lo) // sized to the whole schedule: dispatch never blocks
	var (
		mu      sync.Mutex
		busy    = map[int][]int{} // record key -> chained request indices
		wg      sync.WaitGroup
		started = time.Now().Add(time.Millisecond)
	)
	due := func(i int) time.Time {
		return started.Add(time.Duration(float64(i-lo) / rate * float64(time.Second)))
	}
	run := func(i int) {
		ok, _, err := r.do(i, res.ops[i])
		res.lat[i] = time.Since(due(i))
		res.ok[i] = ok && res.lag[i] <= genLagLimit
		if !ok {
			log.add(err)
		} else if !res.ok[i] {
			log.add(fmt.Errorf("open-loop request %d dispatched %s late (limit %s)", i, res.lag[i], genLagLimit))
		}
	}
	for w := 0; w < openWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				k := key(res.ops[i])
				mu.Lock()
				if chain, inFlight := busy[k]; inFlight {
					busy[k] = append(chain, i)
					mu.Unlock()
					continue
				}
				busy[k] = nil
				mu.Unlock()
				for {
					run(i)
					mu.Lock()
					chain := busy[k]
					if len(chain) == 0 {
						delete(busy, k)
						mu.Unlock()
						break
					}
					i, busy[k] = chain[0], chain[1:]
					mu.Unlock()
				}
			}
		}()
	}
	for i := lo; i < hi; {
		if wait := time.Until(due(i)); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		for ; i < hi && !due(i).After(now); i++ {
			res.lag[i] = now.Sub(due(i))
			queue <- i
		}
	}
	close(queue)
	wg.Wait()
}

// mover runs the handoff schedule: every period a file set moves to the
// daemon that does not own it, through Authority.Assign (fence, drain,
// flush, transfer, drop). Each scheduled file set moves away on one tick
// and back on the next, so both daemons keep about half the load.
type mover struct {
	stop chan struct{}
	done chan struct{}
	tally
	errs errLog
}

func startMover(s *stack, p *plan, every time.Duration) *mover {
	m := &mover{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for i := 0; ; i++ {
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
			fs := p.fileSets[p.moves[(i/2)%len(p.moves)]]
			to := 1 - s.auth.Map().Assign[fs]
			start := time.Now()
			_, err := s.auth.Assign(fs, to)
			if s.seams != nil {
				s.seams.timedAssign(start)
			}
			m.attempted++
			if err != nil {
				m.failed++
				m.errs.add(fmt.Errorf("assign %s to d%d: %w", fs, to, err))
			} else {
				m.good++
			}
		}
	}()
	return m
}

// finish stops the schedule and waits for an in-progress move.
func (m *mover) finish() {
	close(m.stop)
	<-m.done
}
