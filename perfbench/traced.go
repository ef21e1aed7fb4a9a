package main

import (
	"fmt"
	"path/filepath"
	"time"

	"anufs/internal/journal"
	"anufs/internal/obs"
)

// snapshot is the program's cumulative counters at one instant; per-layer
// counts are differences of two snapshots around the measured phases.
type snapshot struct {
	at                                time.Time
	jRecords, jBytes, jFsyncs, jSnaps int64
	retries                           int64
	batches, batchItems               int64
	busy                              [2]time.Duration // owner-queue service time per daemon
	gateCalls, gateRejects            [2]int64
}

// routerRetries are the fleet router's retry counters (wrong-owner
// refetch, adoption wait, reconnect).
var routerRetries = []string{"fleet_router_wrong_owner", "fleet_router_arriving_waits", "fleet_router_reconnects"}

func (ss *session) snapshot() snapshot {
	s := ss.s
	sn := snapshot{
		at:       time.Now(),
		jRecords: s.journalCounter(journal.CtrRecords),
		jBytes:   s.journalCounter(journal.CtrBytes),
		jFsyncs:  s.journalCounter(journal.CtrFsyncs),
		jSnaps:   s.journalCounter(journal.CtrSnapshots),
	}
	for _, reg := range []*obs.Registry{s.gwReg, ss.clReg} {
		c := reg.Counters()
		for _, name := range routerRetries {
			sn.retries += c[name]
		}
	}
	batch := merged("wire_batch_items", "", s.daemons[0].reg, s.daemons[1].reg)
	sn.batches, sn.batchItems = batch.Count(), int64(batch.Sum()) // sizes are recorded as nanoseconds
	for i, d := range s.daemons {
		sn.busy[i] = merged("live_latency_seconds", "", d.reg).Sum() - merged("live_queue_wait_seconds", "", d.reg).Sum()
		if sm := s.seams; sm != nil {
			sn.gateCalls[i], sn.gateRejects[i] = sm.gateCalls[i].Load(), sm.gateRejects[i].Load()
		}
	}
	return sn
}

// tracedRun gives the per-layer metrics. It first runs the closed-loop
// phase on a plain stack (the untraced goodput the trace overhead is
// taken against), then runs the full workload on a stack whose seams are
// wrapped with timers.
func tracedRun(w workload, p *plan, dir string, closed time.Duration) (result, error) {
	// The same throwaway set-ups as an untraced run, so the plain stack
	// measures in the process state an untraced run measures in.
	for i := 0; i < setups-1; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		ss, err := startSession(w, p, sub, nil)
		if err != nil {
			return result{}, err
		}
		ss.shutdown()
		removeAll(sub)
	}
	plain, err := startSession(w, p, filepath.Join(dir, "plain"), nil)
	if err != nil {
		return result{}, err
	}
	var base closedResult
	for k := 0; k < rounds; k++ {
		base.add(plain.r.closedLoop(k, closed/rounds, &plain.errs))
	}
	plain.shutdown()

	sm := newSeams()
	ss, err := startSession(w, p, filepath.Join(dir, "traced"), sm)
	if err != nil {
		return result{}, err
	}
	var (
		before, after snapshot
		spans         []obs.Span
	)
	before = ss.snapshot()
	sm.measure()
	ph := ss.measure(w, closed, func() {
		sm.on.Store(false)
		after = ss.snapshot()
		for _, d := range ss.s.daemons {
			spans = append(spans, d.reg.Spans.Snapshot(0)...)
		}
	})
	ss.shutdown()
	durability := ss.verifyDurable(w)

	res := result{}
	res.finish(ss, ph, durability)
	res.attempted += base.attempted
	res.failed += base.failed
	for _, err := range plain.errs.errs {
		res.problems = append(res.problems, "untraced baseline: "+err.Error())
	}
	res.correct = res.correct && plain.r.mismatches.Load() == 0
	ss.layerMetrics(&res, ph, before, after, spans)
	res.metrics = append(res.metrics, ph.latencies().tails()...)
	res.add("bench.trace_overhead", 1-ratio(ph.closed.goodput(), base.goodput()), "ratio", base.attempted+ph.closed.attempted)
	res.add("bench.gen_lag_p99_ms", ms(quantile(ph.open.lag, 0.99)), "ms", int64(len(ph.open.lag)))
	return res, nil
}

// layerMetrics derives the per-layer metrics of the measured phases.
func (ss *session) layerMetrics(res *result, ph *phases, b, a snapshot, spans []obs.Span) {
	s, sm := ss.s, ss.s.seams
	d0, d1 := s.daemons[0].reg, s.daemons[1].reg
	window := a.at.Sub(b.at)
	ops := ph.closed.attempted + ph.open.attempted
	if ph.readback != nil {
		ops += ph.readback.attempted
	}
	updates := ph.closed.updates + ph.open.updates
	q := func(h *obs.Histogram, p float64) time.Duration { return histQuantile(h, p) }

	// sdk: ops per batch the daemons received, in-flight requests per
	// client connection at each send.
	batches := a.batches - b.batches
	res.add("sdk.batch_fold", ratio(float64(a.batchItems-b.batchItems), float64(batches)), "ops/batch", batches)
	depth := ss.clReg.Hist.Get("sdk_pipeline_depth", "")
	res.add("sdk.pipeline_depth_p50", float64(q(depth, 0.5)), "count", depth.Count())

	// gateway and wire: the gateway's own time is its request time minus
	// the daemon's; the edge is the client's round trip minus the gateway.
	gwStat := merged("gw_request_seconds", `op="stat"`, s.gwReg)
	wireStat := merged("wire_request_seconds", `op="stat"`, d0, d1)
	wireBatch := merged("wire_request_seconds", `op="batch"`, d0, d1)
	var gwSelf, edge float64
	if gwStat.Count() > 0 {
		gwSelf = us(q(gwStat, 0.5) - q(wireStat, 0.5))
		edge = us(q(ss.r.rttStat, 0.5) - q(gwStat, 0.5))
	}
	res.add("gateway.self_p50_us", gwSelf, "us", gwStat.Count())
	res.add("wire.edge_p50_us", edge, "us", ss.r.rttStat.Count())
	res.add("wire.server_stat_p50_us", us(q(wireStat, 0.5)), "us", wireStat.Count())
	res.add("wire.server_stat_p99_us", us(q(wireStat, 0.99)), "us", wireStat.Count())
	res.add("wire.server_batch_p50_us", us(q(wireBatch, 0.5)), "us", wireBatch.Count())
	res.add("wire.server_batch_p99_us", us(q(wireBatch, 0.99)), "us", wireBatch.Count())

	// fleet: the wrapped member gate, the routers' retry counters, and the
	// timed Authority.Assign handoffs.
	gate := obs.NewHistogram()
	gate.Merge(sm.gate[0])
	gate.Merge(sm.gate[1])
	var calls, rejects, admits [2]int64
	for i := range calls {
		calls[i] = a.gateCalls[i] - b.gateCalls[i]
		rejects[i] = a.gateRejects[i] - b.gateRejects[i]
		admits[i] = calls[i] - rejects[i]
	}
	res.add("fleet.gate_p50_us", us(q(gate, 0.5)), "us", gate.Count())
	res.add("fleet.gate_reject_rate", ratio(float64(rejects[0]+rejects[1]), float64(calls[0]+calls[1])), "ratio", calls[0]+calls[1])
	res.add("fleet.route_retries_per_op", ratio(float64(a.retries-b.retries), float64(ops)), "ratio", ops)
	res.add("fleet.handoff_p50_ms", ms(q(sm.handoff, 0.5)), "ms", sm.handoff.Count())
	res.add("fleet.handoff_max_ms", ms(time.Duration(sm.handoffMax.Load())), "ms", sm.handoff.Count())
	res.add("fleet.load_share_max", ratio(float64(max(admits[0], admits[1])), float64(admits[0]+admits[1])/2), "ratio", admits[0]+admits[1])

	// live: owner-queue wait and service.
	wait := merged("live_queue_wait_seconds", "", d0, d1)
	res.add("live.queue_wait_p50_us", us(q(wait, 0.5)), "us", wait.Count())
	res.add("live.queue_wait_p99_us", us(q(wait, 0.99)), "us", wait.Count())
	for i, reg := range []*obs.Registry{d0, d1} {
		h := merged("live_queue_wait_seconds", "", reg)
		res.add(fmt.Sprintf("live.queue_wait_p50_us.d%d", i), us(q(h, 0.5)), "us", h.Count())
	}
	var apply []time.Duration
	for _, sp := range spans {
		if sp.Name == "apply" && sp.Start.After(b.at) {
			apply = append(apply, sp.Dur)
		}
	}
	res.add("live.service_p50_us", us(quantile(apply, 0.5)), "us", int64(len(apply)))
	var busyMax float64
	for i := range a.busy {
		busyMax = max(busyMax, ratio(float64(a.busy[i]-b.busy[i]), float64(window)))
	}
	res.add("live.busy_frac_max", busyMax, "ratio", 2)

	// sharedisk: the wrapped disk's flushes and installs.
	res.add("sharedisk.flush_p50_ms", ms(q(sm.flush, 0.5)), "ms", sm.flush.Count())
	res.add("sharedisk.flush_p99_ms", ms(q(sm.flush, 0.99)), "ms", sm.flush.Count())
	res.add("sharedisk.flush_amp", ratio(float64(sm.flushRecords.Load()), float64(updates)), "ratio", updates)
	res.add("sharedisk.flushes_per_write", ratio(float64(sm.flush.Count()), float64(updates)), "ratio", updates)
	res.add("sharedisk.install_p50_ms", ms(q(sm.install, 0.5)), "ms", sm.install.Count())

	// journal: the wrapped WAL plus the journals' counters and histograms.
	res.add("journal.logflush_p50_ms", ms(q(sm.logFlush, 0.5)), "ms", sm.logFlush.Count())
	res.add("journal.logflush_p99_ms", ms(q(sm.logFlush, 0.99)), "ms", sm.logFlush.Count())
	fsyncs := a.jFsyncs - b.jFsyncs
	res.add("journal.records_per_fsync", ratio(float64(a.jRecords-b.jRecords), float64(fsyncs)), "ratio", fsyncs)
	commit := merged("journal_commit_wait_seconds", "", d0, d1)
	res.add("journal.commit_wait_p50_ms", ms(q(commit, 0.5)), "ms", commit.Count())
	fsync := merged("journal_fsync_seconds", "", d0, d1)
	res.add("journal.fsync_p50_ms", ms(q(fsync, 0.5)), "ms", fsync.Count())
	res.add("journal.snapshots", float64(a.jSnaps-b.jSnaps), "count", a.jRecords-b.jRecords)
	res.add("journal.snapshot_p99_ms", ms(q(sm.snapshot, 0.99)), "ms", sm.snapshot.Count())
	res.add("journal.bytes_per_record", ratio(float64(a.jBytes-b.jBytes), float64(a.jRecords-b.jRecords)), "B", a.jRecords-b.jRecords)

	// replica: the wrapped ack gate and the shipper's round trips.
	res.add("replica.ack_wait_p50_ms", ms(q(sm.ackWait, 0.5)), "ms", sm.ackWait.Count())
	res.add("replica.ack_wait_p99_ms", ms(q(sm.ackWait, 0.99)), "ms", sm.ackWait.Count())
	rtt := merged("replica_ship_rtt_seconds", "", d0)
	res.add("replica.ship_rtt_p50_ms", ms(q(rtt, 0.5)), "ms", rtt.Count())
}
