package main

import (
	"reflect"
	"testing"

	"anufs/internal/fleet"
	"anufs/internal/journal"
	"anufs/internal/sdk"
	"anufs/internal/sharedisk"
)

// outcome is what one fixed op sequence leaves behind.
type outcome struct {
	counters  [2][3]int64 // per daemon: journal records, bytes, snapshots
	commitSp  [2]int      // per daemon: journal-commit-wait spans (traced flushes)
	recovered map[string]map[string]sharedisk.Image
}

// runSequence boots a stack (timed seams or not), runs one client's fixed
// op sequence against it — durable updates through the gateway, a handoff
// each way, snapshots — stops it, and recovers every journal directory.
func runSequence(t *testing.T, timed bool) outcome {
	t.Helper()
	names := []string{"fs00", "fs01", "fs02", "fs03"}
	place := map[string]int{"fs00": 0, "fs01": 1, "fs02": 0, "fs03": 1}
	var sm *seams
	if timed {
		sm = newSeams()
		sm.measure()
	}
	s, err := bootStack(t.TempDir(), names, place, sm)
	if err != nil {
		t.Fatal(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
	}()
	const records = 16
	if err := s.preload(records); err != nil {
		t.Fatal(err)
	}
	cl, err := dialGateway(s.gwAddr, true, sdk.Options{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	update := func(round int) {
		for i := 0; i < 2*len(names)*records; i++ {
			fs, rec := names[i%len(names)], (i/len(names))%records
			if err := cl.update(0, fs, recordPath(rec), recordValue(rec, int64(round*1000+i))); err != nil {
				t.Fatalf("update %s%s: %v", fs, recordPath(rec), err)
			}
		}
	}
	update(1)
	// One handoff each way exercises Install and DropFileSet on both disks.
	if _, err := s.auth.Assign("fs00", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.auth.Assign("fs01", 0); err != nil {
		t.Fatal(err)
	}
	update(2)
	for _, d := range s.daemons {
		if err := d.durable.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	// Each round writes every (file set f, record r) twice, last at
	// i = 64 + 4r + f.
	for f, fs := range names {
		got, err := cl.stat(0, fs, recordPath(f))
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(2000 + 64 + 4*f + f); got != want {
			t.Fatalf("stat %s%s = %d, want %d", fs, recordPath(f), got, want)
		}
	}
	cl.close()
	var out outcome
	for i, d := range s.daemons {
		c := d.jnl.Counters()
		out.counters[i] = [3]int64{c.Get(journal.CtrRecords), c.Get(journal.CtrBytes), c.Get(journal.CtrSnapshots)}
		for _, sp := range d.reg.Spans.Snapshot(0) {
			if sp.Name == "journal-commit-wait" {
				out.commitSp[i]++
			}
		}
	}
	s.stop()
	stopped = true
	out.recovered = map[string]map[string]sharedisk.Image{}
	dirs := map[string]string{"d0": s.daemons[0].dir, "d1": s.daemons[1].dir, "standby": s.standbyDir}
	for name, dir := range dirs {
		images, err := recoverImages(dir)
		if err != nil {
			t.Fatalf("recover %s: %v", name, err)
		}
		// The persisted cluster map holds daemon addresses and a wall-clock
		// stamp, which differ between any two stacks.
		delete(images, fleet.MapFileSet)
		out.recovered[name] = images
	}
	return out
}

// TestTimedSeamsMeasureTheSameProgram runs one fixed single-client op
// sequence on the plain stack and on the stack with every seam wrapped, and
// requires the same journal traffic, the same traced flushes, and the same
// recovered images: the wrappers forward every optional interface the
// stack type-asserts, so the traced run measures the same program.
func TestTimedSeamsMeasureTheSameProgram(t *testing.T) {
	plain := runSequence(t, false)
	timed := runSequence(t, true)
	if plain.counters != timed.counters {
		t.Errorf("journal counters (records, bytes, snapshots per daemon): plain %v, timed %v", plain.counters, timed.counters)
	}
	if plain.commitSp != timed.commitSp || plain.commitSp[0] == 0 || plain.commitSp[1] == 0 {
		t.Errorf("traced journal commits per daemon: plain %v, timed %v (want equal and nonzero)", plain.commitSp, timed.commitSp)
	}
	for name, images := range plain.recovered {
		if !reflect.DeepEqual(images, timed.recovered[name]) {
			t.Errorf("%s: recovered images differ between the plain and the timed stack", name)
		}
	}
	if len(plain.recovered["standby"]) == 0 {
		t.Error("standby recovered no file sets")
	}
	t.Logf("journal records, bytes, snapshots per daemon: %v", plain.counters)
}
