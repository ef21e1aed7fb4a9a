// Command benchsat measures client-layer saturation against an in-process
// fleet daemon: ops/sec and p99 latency versus client count, for three
// transports over the same server —
//
//	blocking   one wire.Client connection used serially, one request per
//	           round trip (every client serializes behind a mutex: the
//	           pre-sdk shape)
//	pipelined  the sdk's pooled, tagged-frame connections (many in-flight
//	           requests, out-of-order completion)
//	batched    pipelined plus client-side op coalescing (many small writes
//	           per round trip and per journal group commit)
//
// Output is `go test -bench` format so cmd/bench2json converts it to the
// BENCH_sdk.json artifact in CI: one line per mode/client-count with
// ns/op, plus a companion /p99 line carrying the 99th-percentile latency.
//
// With -check, benchsat exits nonzero unless the batched transport reaches
// -min-speedup times the blocking transport's throughput at the highest
// client count — the regression gate for the sdk's reason to exist.
//
// With -trace, benchsat instead compares the pipelined transport with
// tracing off against the same transport with edge trace minting on
// (client registry: per-op trace IDs, sdk-call spans, trace context on
// every request), emitting BenchmarkTrace lines for the BENCH_trace.json
// artifact; -trace-check fails the run when tracing costs more than
// -max-trace-overhead of the untraced throughput.
//
// Usage:
//
//	benchsat -clients 1,8,64 -dur 400ms -check
//	benchsat -trace -trace-check
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"anufs/internal/fleet"
	"anufs/internal/live"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sdk"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

func main() {
	var (
		clientsFlag = flag.String("clients", "1,8,64", "comma-separated client counts")
		dur         = flag.Duration("dur", 400*time.Millisecond, "measurement window per mode/client-count")
		fileSets    = flag.Int("filesets", 4, "file sets the load spreads over")
		poolSize    = flag.Int("pool", sdk.DefaultPoolSize, "sdk connections per daemon")
		batchDelay  = flag.Duration("batch-delay", 200*time.Microsecond, "sdk batch coalescing delay")
		opCost      = flag.Duration("opcost", 100*time.Microsecond, "server-side cost per queued task (models apply + journal commit; a batch is one task)")
		check       = flag.Bool("check", false, "fail unless batched reaches -min-speedup x blocking at the highest client count")
		minSpeedup  = flag.Float64("min-speedup", 5, "required batched/blocking throughput ratio for -check")

		traceMode   = flag.Bool("trace", false, "measure tracing overhead instead: pipelined with tracing off vs on (BenchmarkTrace lines)")
		traceCheck  = flag.Bool("trace-check", false, "with -trace: fail when traced throughput drops below (1 - -max-trace-overhead) x untraced")
		maxOverhead = flag.Float64("max-trace-overhead", 0.05, "tolerated fractional throughput loss from tracing for -trace-check")
	)
	flag.Parse()
	var clients []int
	for _, s := range strings.Split(*clientsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			log.Fatalf("benchsat: bad -clients %q", *clientsFlag)
		}
		clients = append(clients, n)
	}
	maxClients := clients[len(clients)-1]

	addr, cleanup := startDaemon(*opCost)
	defer cleanup()
	setup, err := sdk.NewClient(sdk.Options{Authority: addr, Timeout: 10 * time.Second, Budget: 10 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, *fileSets)
	for i := range names {
		names[i] = fmt.Sprintf("bench%02d", i)
		if err := setup.CreateFileSet(names[i]); err != nil {
			log.Fatal(err)
		}
	}
	for w := 0; w < maxClients; w++ {
		if err := setup.Create(names[w%len(names)], workerPath(w), sharedisk.Record{Size: 1}); err != nil {
			log.Fatal(err)
		}
	}
	setup.Close()

	// opsPerSec[mode] at the highest client count, for -check.
	final := map[string]float64{}
	modes := []string{"blocking", "pipelined", "batched"}
	benchName := "BenchmarkSat"
	if *traceMode {
		modes = []string{"pipelined", "traced"}
		benchName = "BenchmarkTrace"
	}
	for _, mode := range modes {
		op, teardown := newTransport(mode, addr, *poolSize, *batchDelay, names)
		for _, n := range clients {
			ops, p99 := run(op, n, *dur)
			elapsed := dur.Seconds()
			opsPerSec := float64(ops) / elapsed
			nsPerOp := elapsed * 1e9 / float64(max64(ops, 1))
			fmt.Printf("%s/%s/c%d \t%d\t%.1f ns/op\n", benchName, mode, n, ops, nsPerOp)
			fmt.Printf("%s/%s/c%d/p99 \t1\t%d ns/op\n", benchName, mode, n, p99.Nanoseconds())
			fmt.Fprintf(os.Stderr, "benchsat: %-9s c=%-3d %10.0f ops/sec  p99=%v\n", mode, n, opsPerSec, p99)
			if n == maxClients {
				final[mode] = opsPerSec
			}
		}
		teardown()
	}

	if *traceMode && *traceCheck {
		ratio := final["traced"] / final["pipelined"]
		floor := 1 - *maxOverhead
		fmt.Fprintf(os.Stderr, "benchsat: traced/untraced at c=%d: %.3f (floor %.3f)\n",
			maxClients, ratio, floor)
		if ratio < floor {
			log.Fatalf("benchsat: tracing costs %.1f%% of untraced throughput, budget is %.1f%%",
				(1-ratio)*100, *maxOverhead*100)
		}
	}
	if *check && !*traceMode {
		ratio := final["batched"] / final["blocking"]
		fmt.Fprintf(os.Stderr, "benchsat: batched/blocking at c=%d: %.1fx (floor %.1fx)\n",
			maxClients, ratio, *minSpeedup)
		if ratio < *minSpeedup {
			log.Fatalf("benchsat: batched transport reached only %.1fx blocking throughput, floor is %.1fx", ratio, *minSpeedup)
		}
	}
}

func workerPath(w int) string { return fmt.Sprintf("/w%03d", w) }

func max64(v int64, floor int64) int64 {
	if v < floor {
		return floor
	}
	return v
}

// startDaemon boots one in-process fleet daemon (cluster, wire server,
// member, authority) and returns its wire address.
func startDaemon(opCost time.Duration) (string, func()) {
	disk := sharedisk.NewStore(0)
	cfg := live.DefaultConfig()
	cfg.Window = time.Hour // no background tuning mid-benchmark
	cfg.OpCost = opCost
	cfg.RetryBudget = time.Second
	clus, err := live.NewCluster(cfg, disk, map[int]float64{0: 1})
	if err != nil {
		log.Fatal(err)
	}
	srv := wire.NewServer(clus)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	dial := func(a string) (*wire.Client, error) {
		c, err := wire.Dial(a)
		if err != nil {
			return nil, err
		}
		c.SetTimeout(10 * time.Second)
		return c, nil
	}
	auth, err := fleet.NewAuthority(fleet.AuthorityConfig{
		Daemons: []placement.DaemonInfo{{ID: 0, Addr: addr, Speed: 1}},
		Dial:    dial,
	})
	if err != nil {
		log.Fatal(err)
	}
	member, err := fleet.NewMember(fleet.MemberConfig{
		ID:           0,
		Cluster:      clus,
		Disk:         disk,
		Authority:    auth,
		DrainTimeout: 2 * time.Second,
		PollInterval: 20 * time.Millisecond,
		Dial:         dial,
	}, auth.Map())
	if err != nil {
		log.Fatal(err)
	}
	srv.SetFleet(member)
	member.Start()
	return addr, func() {
		member.Stop()
		srv.Close()
		clus.Stop()
	}
}

// newTransport returns the per-worker op for one mode: worker w updates
// its own pre-created record, so the op is a small metadata write that the
// batched transport may coalesce.
func newTransport(mode, addr string, poolSize int, batchDelay time.Duration, names []string) (func(w int) error, func()) {
	rec := sharedisk.Record{Size: 2}
	switch mode {
	case "blocking":
		c, err := wire.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		c.SetTimeout(10 * time.Second)
		var mu sync.Mutex
		return func(w int) error {
			mu.Lock()
			defer mu.Unlock()
			return c.Update(names[w%len(names)], workerPath(w), rec)
		}, func() { c.Close() }
	case "pipelined", "batched", "traced":
		opts := sdk.Options{
			Authority: addr,
			Timeout:   10 * time.Second,
			Budget:    10 * time.Second,
			PoolSize:  poolSize,
		}
		if mode == "batched" {
			opts.BatchDelay = batchDelay
		}
		if mode == "traced" {
			// Edge trace minting on: every op gets a trace ID, an sdk-call
			// span, and trace context on the wire.
			opts.Obs = obs.New()
		}
		c, err := sdk.NewClient(opts)
		if err != nil {
			log.Fatal(err)
		}
		return func(w int) error {
			return c.Update(names[w%len(names)], workerPath(w), rec)
		}, func() { c.Close() }
	}
	log.Fatalf("benchsat: unknown mode %q", mode)
	return nil, nil
}

// run drives n workers against op for the window and returns total
// completed ops and the p99 op latency.
func run(op func(w int) error, n int, window time.Duration) (int64, time.Duration) {
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	lats := make([][]int64, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				start := time.Now()
				if err := op(w); err != nil {
					log.Fatalf("benchsat: worker %d: %v", w, err)
				}
				lats[w] = append(lats[w], time.Since(start).Nanoseconds())
			}
		}(w)
	}
	wg.Wait()
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := all[(len(all)*99)/100]
	if (len(all)*99)/100 >= len(all) {
		p99 = all[len(all)-1]
	}
	return int64(len(all)), time.Duration(p99)
}
