package main

import (
	"sync/atomic"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/journal"
	"anufs/internal/obs"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// seams records the per-layer timings of a traced run. Every number here
// comes from timing a call the benchmark itself routes through one of the
// public seams it assembles: the fleet handler each wire server is given,
// the disk each cluster and member are given, the WAL each durable disk is
// given, the ack gate the replicating journal is given, and the
// Authority.Assign calls of the handoff schedule. Nothing inside the
// program is instrumented. Recording starts at measure(), so set-up
// traffic (file-set creation, preload) is left out.
type seams struct {
	on atomic.Bool

	gate        [2]*obs.Histogram
	gateCalls   [2]atomic.Int64
	gateRejects [2]atomic.Int64

	flush        *obs.Histogram
	install      *obs.Histogram
	flushRecords atomic.Int64

	logFlush *obs.Histogram
	snapshot *obs.Histogram
	ackWait  *obs.Histogram

	handoff    *obs.Histogram
	handoffMax atomic.Int64
}

func newSeams() *seams {
	return &seams{
		gate:     [2]*obs.Histogram{obs.NewHistogram(), obs.NewHistogram()},
		flush:    obs.NewHistogram(),
		install:  obs.NewHistogram(),
		logFlush: obs.NewHistogram(),
		snapshot: obs.NewHistogram(),
		ackWait:  obs.NewHistogram(),
		handoff:  obs.NewHistogram(),
	}
}

// measure starts recording.
func (s *seams) measure() { s.on.Store(true) }

// observe records one timed call into h while recording is on.
func (s *seams) observe(h *obs.Histogram, start time.Time) {
	if s.on.Load() {
		h.Observe(time.Since(start))
	}
}

// timedFleet is the fleet handler a traced daemon's wire server gets: the
// member itself, with Gate timed and its admissions counted per daemon.
type timedFleet struct {
	*fleet.Member
	id    int
	seams *seams
}

var _ wire.FleetHandler = (*timedFleet)(nil)

func (f *timedFleet) Gate(op wire.Op, fileSet string) (func(), error) {
	start := time.Now()
	release, err := f.Member.Gate(op, fileSet)
	if f.seams.on.Load() {
		f.seams.gate[f.id].Observe(time.Since(start))
		f.seams.gateCalls[f.id].Add(1)
		if err != nil {
			f.seams.gateRejects[f.id].Add(1)
		}
	}
	return release, err
}

// timedDisk is the shared disk a traced daemon's cluster and member get.
// Embedding the durable disk forwards every method, so the optional
// interfaces the stack type-asserts (FlushTraced, Installer, Dropper) are
// still there; the flush and install paths are timed.
type timedDisk struct {
	*sharedisk.Durable
	seams *seams
}

var (
	_ sharedisk.Disk      = (*timedDisk)(nil)
	_ sharedisk.Installer = (*timedDisk)(nil)
	_ sharedisk.Dropper   = (*timedDisk)(nil)
	_ interface {
		FlushTraced(uint64, string, sharedisk.Image) (uint64, error)
	} = (*timedDisk)(nil)
)

func (d *timedDisk) Flush(fileSet string, im sharedisk.Image) (uint64, error) {
	return d.FlushTraced(0, fileSet, im)
}

func (d *timedDisk) FlushTraced(trace uint64, fileSet string, im sharedisk.Image) (uint64, error) {
	start := time.Now()
	v, err := d.Durable.FlushTraced(trace, fileSet, im)
	if d.seams.on.Load() {
		d.seams.flush.Observe(time.Since(start))
		d.seams.flushRecords.Add(int64(len(im.Records)))
	}
	return v, err
}

func (d *timedDisk) Install(fileSet string, im sharedisk.Image) error {
	start := time.Now()
	err := d.Durable.Install(fileSet, im)
	d.seams.observe(d.seams.install, start)
	return err
}

// timedWAL is the write-ahead log a traced daemon's durable disk gets:
// the journal itself, with logged flushes and snapshots timed. Embedding
// keeps LogCreateFileSet, LogDrop (sharedisk.DropWAL) and Close.
type timedWAL struct {
	*journal.Journal
	seams *seams
}

var (
	_ sharedisk.WAL       = (*timedWAL)(nil)
	_ sharedisk.TracedWAL = (*timedWAL)(nil)
	_ sharedisk.DropWAL   = (*timedWAL)(nil)
)

func (w *timedWAL) LogFlush(fileSet string, im sharedisk.Image) error {
	start := time.Now()
	err := w.Journal.LogFlush(fileSet, im)
	w.seams.observe(w.seams.logFlush, start)
	return err
}

func (w *timedWAL) LogFlushTraced(trace uint64, fileSet string, im sharedisk.Image) error {
	start := time.Now()
	err := w.Journal.LogFlushTraced(trace, fileSet, im)
	w.seams.observe(w.seams.logFlush, start)
	return err
}

func (w *timedWAL) Snapshot(images func() map[string]sharedisk.Image) error {
	start := time.Now()
	err := w.Journal.Snapshot(images)
	w.seams.observe(w.seams.snapshot, start)
	return err
}

// timedAckGate wraps the semi-sync gate (the shipper's WaitAcked): the
// time a locally durable append waits for the standby's ack.
func (s *seams) timedAckGate(gate func(seq uint64) error) func(seq uint64) error {
	return func(seq uint64) error {
		start := time.Now()
		err := gate(seq)
		s.observe(s.ackWait, start)
		return err
	}
}

// timedAssign records one handoff driven through Authority.Assign.
func (s *seams) timedAssign(start time.Time) {
	if !s.on.Load() {
		return
	}
	d := time.Since(start)
	s.handoff.Observe(d)
	for {
		cur := s.handoffMax.Load()
		if int64(d) <= cur || s.handoffMax.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}
