// Command perfbench is anufs's real-stack benchmark. One process boots two
// journaled fleet daemons (authority on d0), a semi-sync standby fed by d0
// only, and an sdk gateway, preloads the paper's 21 file sets, and drives
// one seeded workload against them: a closed-loop phase for goodput and an
// open-loop phase for latency. It checks every answer, recovers every
// journal directory afterwards to check durability, and prints its
// metrics; --trace 1 instead runs the stack with timing wrappers on its
// seams and prints the per-layer metrics. See README.md.
//
//	bash perfbench/run.sh --workload meta-read --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"anufs/internal/journal"
	"anufs/internal/obs"
	"anufs/internal/sdk"
	"anufs/internal/wire"
)

// setups is how many times an untraced run boots and preloads the stack;
// setup_s is their median.
const setups = 5

// workDir holds a run's journal directories, under the checkout's
// build-output directory.
var workDir = filepath.Join(".bench_build", "perfbench")

// closedShare is the share of --seconds spent in the closed-loop phase;
// the open-loop phase gets the rest.
const closedShare = 0.5

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: meta-read | durable-write | handoff-mixed")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 30, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 = traced run: per-layer metrics")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (meta-read|durable-write|handoff-mixed), --seconds > 0, --trace 0|1\n")
		return 2
	}
	// One process, at most nproc (and at most 2) threads running Go code.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	closed := time.Duration(*seconds * closedShare * float64(time.Second))
	open := time.Duration(*seconds*float64(time.Second)) - closed
	moves := 1
	if w.handoffEvery > 0 {
		moves = int(time.Duration(*seconds*float64(time.Second))/w.handoffEvery) + 1
	}
	p := makePlan(w, *seed, open.Seconds(), moves)

	dir := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer removeAll(dir)
	fmt.Printf("perfbench: workload %s, seed %d, %.1fs measured, trace %d\n", w.name, *seed, *seconds, *traced)
	fmt.Println(topologyLine)
	fmt.Println(policyLine)
	fmt.Printf("load: %d file sets x %d records; closed loop %d in flight for %s (latency limit %s); "+
		"open loop %g ops/s for %s; %d client connections; GOMAXPROCS %d\n",
		len(p.fileSets), recordsPerSet, w.window, closed, w.limit, w.rate, open, conns, runtime.GOMAXPROCS(0))

	var (
		res result
		err error
	)
	if *traced == 1 {
		res, err = tracedRun(w, p, dir, closed)
	} else {
		res, err = untracedRun(w, p, dir, closed)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print()
	out, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.correct {
		return 1
	}
	return 0
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int64
}

type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
	// extras are printed beside the metrics but left out of the JSON.
	extras   []metric
	problems []string
}

func (r *result) add(name string, value float64, unit string, samples int64) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

func (r *result) extra(name string, value float64, unit string, samples int64) {
	r.extras = append(r.extras, metric{name, value, unit, samples})
}

func (r *result) print() {
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
	fmt.Printf("%-34s %16s  %-10s %s\n", "metric", "value", "unit", "samples")
	for _, m := range r.metrics {
		fmt.Printf("%-34s %16.6g  %-10s %d\n", m.name, m.value, m.unit, m.samples)
	}
	for _, m := range r.extras {
		fmt.Printf("%-34s %16.6g  %-10s %d  (not gated)\n", m.name, m.value, m.unit, m.samples)
	}
	fmt.Printf("correct %v, attempted %d, failed %d\n", r.correct, r.attempted, r.failed)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) summary() jsonResult {
	out := jsonResult{Correct: r.correct, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return out
}

// session is one booted stack with the workload's client attached.
type session struct {
	s      *stack
	cl     client
	clReg  *obs.Registry
	r      *runner
	errs   errLog
	setupD time.Duration
}

// startSession boots the stack, preloads it, checks it is the real stack,
// and attaches the workload's client.
func startSession(w workload, p *plan, dir string, sm *seams) (*session, error) {
	start := time.Now()
	s, err := bootStack(dir, p.fileSets, p.place, sm)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	if err := s.preload(recordsPerSet); err != nil {
		s.stop()
		return nil, err
	}
	ss := &session{s: s, clReg: obs.New()}
	opts := sdk.Options{PoolSize: 1, Obs: ss.clReg}
	if w.viaGateway {
		ss.cl, err = dialGateway(s.gwAddr, w.durable, opts)
	} else {
		opts.Authority, opts.BatchDelay, opts.Durable = s.daemons[0].addr, w.batchDelay, w.durable
		var c *sdk.Client
		c, err = sdk.NewClient(opts)
		ss.cl = sdkClient{c}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	ss.r = newRunner(ss.cl, p, newExpected(len(p.fileSets)), w.limit)
	// Warm up: one stat per file set on each connection, one at a time,
	// so every connection pool on the path is dialed before the load.
	for lane := 0; lane < conns; lane++ {
		for fi := range p.fileSets {
			if _, err := ss.cl.stat(lane, p.fileSets[fi], recordPath(0)); err != nil {
				ss.shutdown()
				return nil, fmt.Errorf("warm-up stat: %w", err)
			}
		}
	}
	if err := s.guard(); err != nil {
		ss.shutdown()
		return nil, fmt.Errorf("real-stack guard: %w", err)
	}
	ss.setupD = time.Since(start)
	return ss, nil
}

// shutdown detaches the client and stops the stack.
func (ss *session) shutdown() {
	ss.cl.close()
	ss.s.stop()
}

// phases is what one measured run produced.
type phases struct {
	closed   closedResult
	open     *openResult
	readback *openResult // read-back workloads only
	barrier  tally
	moves    *mover
	bytes    int64 // journal bytes appended by the daemons over the run
	heap     uint64
}

func (ph *phases) total() tally {
	var t tally
	t.add(ph.closed.tally)
	t.add(ph.open.tally)
	if ph.readback != nil {
		t.add(ph.readback.tally)
	}
	t.add(ph.barrier)
	if ph.moves != nil {
		t.add(ph.moves.tally)
	}
	return t
}

// measure runs the workload on a booted session: rounds of a closed-loop
// slice, an open-loop slice and (read-back workloads) a slice of the
// read-back. mid, when set, runs after the last round, before the
// durability barrier.
func (ss *session) measure(w workload, closed time.Duration, mid func()) *phases {
	r := ss.r
	ph := &phases{open: newOpenResult(r.p.open)}
	if w.readback {
		ph.readback = newOpenResult(r.p.readback)
	}
	bytes0 := ss.s.journalCounter(journal.CtrBytes)
	if w.handoffEvery > 0 {
		ph.moves = startMover(ss.s, r.p, w.handoffEvery)
	}
	n, nb := len(r.p.open), len(r.p.readback)
	for k := 0; k < rounds; k++ {
		ph.closed.add(r.closedLoop(k, closed/rounds, &ss.errs))
		r.openLoop(ph.open, k*n/rounds, (k+1)*n/rounds, w.rate, &ss.errs)
		if ph.readback != nil {
			r.openLoop(ph.readback, k*nb/rounds, (k+1)*nb/rounds, readbackRate, &ss.errs)
		}
	}
	ph.open.count()
	if ph.readback != nil {
		ph.readback.count()
	}
	if ph.moves != nil {
		ph.moves.finish()
		for _, err := range ph.moves.errs.errs {
			ss.errs.add(err)
		}
	}
	if mid != nil {
		mid()
	}
	if !w.durable {
		ph.barrier = ss.barrier()
	}
	ph.bytes = ss.s.journalCounter(journal.CtrBytes) - bytes0
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ph.heap = m.HeapAlloc
	return ph
}

// barrier makes an in-memory workload's updates durable: one checkpointing
// batch per file set (the durability barrier a client of it would issue).
func (ss *session) barrier() tally {
	var t tally
	gc := ss.cl.(*gatewayClient)
	for _, fs := range ss.r.p.fileSets {
		t.attempted++
		resp, err := gc.conns[0].Call(wire.Request{Op: wire.OpBatch, FileSet: fs, Durable: true,
			Batch: []wire.BatchItem{{Op: wire.OpStat, Path: recordPath(0)}}})
		if err == nil {
			err = batchErr(resp.Results)
		}
		if err != nil {
			t.failed++
			ss.errs.add(fmt.Errorf("durability barrier on %s: %w", fs, err))
			continue
		}
		t.good++
	}
	return t
}

// journalCounter sums a journal counter over the daemons.
func (s *stack) journalCounter(name string) int64 {
	var n int64
	for _, d := range s.daemons {
		n += d.jnl.Counters().Get(name)
	}
	return n
}

// untracedRun is the measured run: end-to-end metrics, tracing off.
func untracedRun(w workload, p *plan, dir string, closed time.Duration) (result, error) {
	var setupTimes []time.Duration
	var ss *session
	for i := 0; i < setups; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		var err error
		if ss, err = startSession(w, p, sub, nil); err != nil {
			return result{}, err
		}
		setupTimes = append(setupTimes, ss.setupD)
		if i < setups-1 {
			ss.shutdown()
			removeAll(sub)
		}
	}
	ph := ss.measure(w, closed, nil)
	ss.shutdown()
	res := result{}
	durability := ss.verifyDurable(w)
	res.finish(ss, ph, durability)

	res.add("goodput_ops_s", ph.closed.goodput(), "ops/s", ph.closed.attempted)
	lat := ph.latencies()
	lat.medians(&res)
	res.extras = append(res.extras, lat.tails()...)
	// Laplace-smoothed (rule of succession), so a clean run reads a small
	// positive rate that shrinks as more requests are attempted.
	res.add("error_rate", float64(res.failed+1)/float64(res.attempted+2), "ratio", res.attempted)
	done := ph.total().good
	res.add("bytes_written_per_op", ratio(float64(ph.bytes), float64(done)), "B/op", done)
	res.add("heap_live_mb", float64(ph.heap)/(1<<20), "MB", 1)
	sort.Slice(setupTimes, func(i, j int) bool { return setupTimes[i] < setupTimes[j] })
	res.add("setup_s", setupTimes[len(setupTimes)/2].Seconds(), "s", int64(len(setupTimes)))
	res.extra("bench.gen_lag_p99_ms", ms(quantile(ph.open.lag, 0.99)), "ms", int64(len(ph.open.lag)))
	return res, nil
}

// latencies are the stat and update latencies of a run's successful
// requests, from their due times.
type latencies struct{ stat, write []time.Duration }

func (ph *phases) latencies() latencies {
	var l latencies
	l.stat, l.write = ph.open.split()
	if ph.readback != nil {
		// A workload that sends no open-loop stats takes its stat latencies
		// from the read-back.
		l.stat, _ = ph.readback.split()
	}
	return l
}

// medians adds the end-to-end latency metrics.
func (l latencies) medians(res *result) {
	res.add("stat_p50_ms", ms(quantile(l.stat, 0.50)), "ms", int64(len(l.stat)))
	res.add("write_p50_ms", ms(quantile(l.write, 0.50)), "ms", int64(len(l.write)))
}

// tails returns the stat and update p99 metrics. On a shared machine they
// spread too widely from run to run to bound: an untraced run only prints
// them, and the traced run reports them as unbounded metrics.
func (l latencies) tails() []metric {
	return []metric{
		{"stat_p99_ms", ms(tailP99(l.stat)), "ms", int64(len(l.stat))},
		{"write_p99_ms", ms(tailP99(l.write)), "ms", int64(len(l.write))},
	}
}

// split returns the latencies of successful stats and updates.
func (o *openResult) split() (stat, write []time.Duration) {
	for i, lat := range o.lat {
		if !o.ok[i] {
			continue
		}
		if o.ops[i].stat {
			stat = append(stat, lat)
		} else {
			write = append(write, lat)
		}
	}
	return stat, write
}

// finish fills the outcome counts and correctness from a session's phases
// and its durability check.
func (res *result) finish(ss *session, ph *phases, durability []string) {
	t := ph.total()
	res.attempted, res.failed = t.attempted, t.failed
	for _, err := range ss.errs.errs {
		res.problems = append(res.problems, err.Error())
	}
	res.problems = append(res.problems, durability...)
	res.correct = ss.r.mismatches.Load() == 0 && len(durability) == 0
}
