package fleet

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"anufs/internal/metrics"
	"anufs/internal/obs"
	"anufs/internal/placement"
	"anufs/internal/sharedisk"
	"anufs/internal/wire"
)

// DefaultRouteBudget bounds how long a routed operation keeps retrying
// through map refetches, adoption waits, and reconnects.
const DefaultRouteBudget = 10 * time.Second

// RouterConfig parameterizes a routing client.
type RouterConfig struct {
	// AuthorityAddr is where maps are fetched from (the last-resort map
	// source, and the target of assign/rebalance forwards).
	AuthorityAddr string
	// MapSources are additional map sources tried before the authority —
	// peer gateways sharing their cached maps, so N gateways converge on a
	// new epoch without all of them hitting the authority.
	MapSources []string
	// Maps shares a cluster-map cache across routers; nil builds a private
	// one from MapSources+AuthorityAddr.
	Maps *MapCache
	// Budget bounds one routed operation end to end (default
	// DefaultRouteBudget).
	Budget time.Duration
	// Obs receives per-daemon route counters; nil disables.
	Obs *obs.Registry
	// Dial opens outbound connections (map fetches and routed ops); nil
	// dials a wire.Client bounded by wire.DefaultCallTimeout. The sdk
	// plugs pipelined connection pools in here.
	Dial func(addr string) (Caller, error)
}

// Router is the fleet's client side: it caches the cluster map, routes
// each operation to the owning daemon, and converges on wrong-owner
// rejections by refetching the map. The retry discipline is deliberate: a
// wrong-owner error names the epoch the daemon rejected under, and the
// router retries the operation at most once per refetch that reaches that
// epoch — no retry storm against a daemon that keeps saying no.
type Router struct {
	cfg      RouterConfig
	counters *metrics.CounterSet
	maps     *MapCache
	ownsMaps bool

	mu      sync.Mutex
	clients map[string]Caller
}

// NewRouter fetches the initial map from the authority and returns a ready
// router.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.AuthorityAddr == "" {
		return nil, fmt.Errorf("fleet: router needs an authority address")
	}
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultRouteBudget
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (Caller, error) {
			c, err := wire.DialTimeout(addr, wire.DefaultCallTimeout)
			if err != nil {
				return nil, err
			}
			return c, nil
		}
	}
	r := &Router{
		cfg:      cfg,
		counters: metrics.NewCounterSet(),
		maps:     cfg.Maps,
		clients:  map[string]Caller{},
	}
	if r.maps == nil {
		sources := append(append([]string{}, cfg.MapSources...), cfg.AuthorityAddr)
		r.maps = NewMapCache(sources, cfg.Dial, r.counters)
		r.ownsMaps = true
	}
	if cfg.Obs != nil {
		cfg.Obs.AddCounters(r.counters.Snapshot)
	}
	if _, err := r.Refresh(); err != nil {
		return nil, err
	}
	if r.maps.Cached() == nil {
		return nil, fmt.Errorf("fleet: no map source answered")
	}
	return r, nil
}

// Close tears down the cached daemon connections (and the map cache, when
// the router owns it). The client map is swapped out under the lock and
// the connections closed outside it, so a slow teardown cannot stall
// routers mid-refresh.
func (r *Router) Close() {
	r.mu.Lock()
	clients := r.clients
	r.clients = map[string]Caller{}
	r.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	if r.ownsMaps {
		r.maps.Close()
	}
}

// Map returns the router's cached cluster map.
func (r *Router) Map() *placement.ClusterMap {
	return r.maps.Cached()
}

// Maps exposes the router's cluster-map cache — gateways share it across
// routers and invalidate it on epoch announcements.
func (r *Router) Maps() *MapCache { return r.maps }

// Refresh refetches the map through the cache's sources, keeping the
// cached one if every fetch is older (maps only move forward).
func (r *Router) Refresh() (*placement.ClusterMap, error) {
	cm, err := r.maps.Refresh()
	if err == nil {
		r.counters.Add("fleet_router_refreshes", 1)
	}
	return cm, err
}

// Caller returns the cached connection to addr, dialing on first use —
// exported so gateways can reach the authority through the router's
// connection cache.
func (r *Router) Caller(addr string) (Caller, error) {
	r.mu.Lock()
	if c, ok := r.clients[addr]; ok {
		r.mu.Unlock()
		return c, nil
	}
	r.mu.Unlock()
	c, err := r.cfg.Dial(addr)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.clients[addr]; ok {
		// Lost the dial race; keep the first connection.
		go c.Close()
		return prev, nil
	}
	r.clients[addr] = c
	return c, nil
}

// invalidate drops a cached connection (it errored; the next use redials).
func (r *Router) invalidate(addr string) {
	r.mu.Lock()
	c, ok := r.clients[addr]
	delete(r.clients, addr)
	r.mu.Unlock()
	if ok {
		c.Close()
	}
}

// transientErr reports connection-level failures worth a reconnect+retry,
// as opposed to application errors the caller must see. The decision
// lives in wire.TransientError: typed sentinels first, with one
// sanctioned text fallback for errors whose type was lost crossing the
// wire.
func transientErr(err error) bool {
	return wire.TransientError(err)
}

// Do routes one operation against the file set's owning daemon, converging
// through wrong-owner refetches, adoption waits, and reconnects within the
// route budget. fn runs against the owner's transport and is retried at
// most once per state change (new map epoch, reconnect, or backoff step) —
// it must be idempotent or check-before-write, like every wire op here.
func (r *Router) Do(fileSet string, fn func(d placement.DaemonInfo, c Caller) error) error {
	return r.do(0, fileSet, fn)
}

// do is Do with trace context: when the routed operation belongs to a
// trace (and the router has a registry), every retry event — wrong-owner
// refetch, adoption backoff, reconnect — lands in the trace as a
// "route-retry" span, so a stitched fleet timeline shows WHY a request
// crossed daemons, not just that it did.
func (r *Router) do(trace uint64, fileSet string, fn func(d placement.DaemonInfo, c Caller) error) error {
	deadline := time.Now().Add(r.cfg.Budget)
	backoff := wire.NewBackoff(5*time.Millisecond, 250*time.Millisecond)
	retrySpan := func(reason string, daemon int, start time.Time, err error) {
		if trace == 0 || r.cfg.Obs == nil {
			return
		}
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		r.cfg.Obs.Spans.Add(obs.Span{
			Trace: trace, Name: "route-retry", Op: reason, FileSet: fileSet,
			Server: daemon, Start: start, Dur: time.Since(start), Err: errStr,
		})
	}
	var lastErr error
	for {
		cm, _ := r.maps.Get()
		if cm == nil {
			return fmt.Errorf("fleet: no cluster map")
		}
		d, placed := cm.Owner(fileSet)
		if !placed {
			return fmt.Errorf("fleet: file set %q is not in the cluster map (epoch %d)", fileSet, cm.Epoch)
		}
		attempt := time.Now()
		c, err := r.Caller(d.Addr)
		if err == nil {
			err = fn(d, c)
		}
		if err == nil {
			r.counters.Add("fleet_routed_daemon_"+strconv.Itoa(d.ID), 1)
			return nil
		}
		lastErr = err
		switch {
		case isWrongOwnerErr(err):
			epoch, _ := wire.IsWrongOwner(err)
			r.counters.Add("fleet_router_wrong_owner", 1)
			// Mark the cache stale up to the rejecting daemon's epoch, then
			// refetch until the map reaches it; only then is a retry allowed
			// — exactly one per refetch that advances far enough.
			r.maps.Invalidate(epoch)
			if !r.awaitEpoch(epoch, deadline, backoff) {
				retrySpan("wrong-owner", d.ID, attempt, err)
				return fmt.Errorf("fleet: map never reached epoch %d within the route budget: %w", epoch, lastErr)
			}
			retrySpan("wrong-owner", d.ID, attempt, err)
		case wire.IsArriving(err):
			r.counters.Add("fleet_router_arriving_waits", 1)
			ok := sleepUntil(backoff.Next(), deadline)
			retrySpan("arriving", d.ID, attempt, err)
			if !ok {
				return lastErr
			}
		case transientErr(err):
			r.counters.Add("fleet_router_reconnects", 1)
			r.invalidate(d.Addr)
			ok := sleepUntil(backoff.Next(), deadline)
			retrySpan("reconnect", d.ID, attempt, err)
			if !ok {
				return lastErr
			}
			// The daemon may have moved on while we were disconnected.
			_, _ = r.Refresh()
		case wire.IsUnplaced(err) && cm.Assign[fileSet] == d.ID:
			// The daemon has not seen the map that assigns it this file set
			// yet (our map is newer than its). Transient: it converges by
			// authority push or poll.
			ok := sleepUntil(backoff.Next(), deadline)
			retrySpan("await-assign", d.ID, attempt, err)
			if !ok {
				return lastErr
			}
		default:
			return err // application error: the caller's problem
		}
	}
}

func isWrongOwnerErr(err error) bool {
	_, ok := wire.IsWrongOwner(err)
	return ok
}

// awaitEpoch refetches the map until its epoch reaches target (true) or
// the deadline passes (false).
func (r *Router) awaitEpoch(target uint64, deadline time.Time, backoff *wire.Backoff) bool {
	for {
		cm, _ := r.Refresh()
		if cm != nil && cm.Epoch >= target {
			return true
		}
		if !sleepUntil(backoff.Next(), deadline) {
			return false
		}
	}
}

// sleepUntil sleeps d (clipped to the deadline) and reports whether the
// deadline still lies ahead.
func sleepUntil(d time.Duration, deadline time.Time) bool {
	remain := time.Until(deadline)
	if remain <= 0 {
		return false
	}
	if d > remain {
		d = remain
	}
	time.Sleep(d)
	return true
}

// --- typed convenience methods -------------------------------------------

// The typed methods speak raw wire requests through the Caller interface,
// so they work identically over one wire.Client and the sdk's pools.

// CallAuthority sends one request to the fleet authority, preferring the
// daemon the current map advertises (which survives a standby promotion —
// the promoted authority publishes itself in the map) and falling back to
// the configured address when the advertised one fails or is absent.
func (r *Router) CallAuthority(req wire.Request) (wire.Response, error) {
	var addrs []string
	if d, ok := r.Map().AuthorityDaemon(); ok {
		addrs = append(addrs, d.Addr)
	}
	if r.cfg.AuthorityAddr != "" && (len(addrs) == 0 || addrs[0] != r.cfg.AuthorityAddr) {
		addrs = append(addrs, r.cfg.AuthorityAddr)
	}
	var lastErr error
	for _, addr := range addrs {
		c, err := r.Caller(addr)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := c.Call(req)
		if err != nil {
			lastErr = err
			if transientErr(err) {
				r.invalidate(addr)
				continue
			}
			return resp, err
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = errors.New("fleet: no authority address")
	}
	return wire.Response{}, lastErr
}

// CreateFileSet creates a file set fleet-wide: unplaced file sets are first
// assigned by the authority (ANU placement), then created on their owner.
func (r *Router) CreateFileSet(fileSet string) error {
	if _, placed := r.Map().Owner(fileSet); !placed {
		resp, err := r.CallAuthority(wire.Request{Op: wire.OpAssign, FileSet: fileSet, Daemon: -1})
		if err != nil {
			return fmt.Errorf("fleet: place %q: %w", fileSet, err)
		}
		// The cache must reach the assigning epoch before routing can see
		// the new owner.
		r.maps.Invalidate(resp.Epoch)
		if _, err := r.Refresh(); err != nil {
			return err
		}
	}
	return r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		_, err := c.Call(wire.Request{Op: wire.OpCreateFileSet, FileSet: fileSet})
		return err
	})
}

// Create adds a metadata record.
func (r *Router) Create(fileSet, path string, rec sharedisk.Record) error {
	return r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		_, err := c.Call(wire.Request{Op: wire.OpCreate, FileSet: fileSet, Path: path, Record: &rec})
		return err
	})
}

// Stat reads a metadata record.
func (r *Router) Stat(fileSet, path string) (sharedisk.Record, error) {
	var rec sharedisk.Record
	err := r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		resp, err := c.Call(wire.Request{Op: wire.OpStat, FileSet: fileSet, Path: path})
		if err != nil {
			return err
		}
		if resp.Record == nil {
			return errors.New("wire: stat returned no record")
		}
		rec = *resp.Record
		return nil
	})
	return rec, err
}

// Update overwrites a metadata record.
func (r *Router) Update(fileSet, path string, rec sharedisk.Record) error {
	return r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		_, err := c.Call(wire.Request{Op: wire.OpUpdate, FileSet: fileSet, Path: path, Record: &rec})
		return err
	})
}

// Remove deletes a metadata record.
func (r *Router) Remove(fileSet, path string) error {
	return r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		_, err := c.Call(wire.Request{Op: wire.OpRemove, FileSet: fileSet, Path: path})
		return err
	})
}

// List returns paths under a prefix.
func (r *Router) List(fileSet, prefix string) ([]string, error) {
	var out []string
	err := r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		resp, err := c.Call(wire.Request{Op: wire.OpList, FileSet: fileSet, Path: prefix})
		if err != nil {
			return err
		}
		out = resp.Paths
		return nil
	})
	return out, err
}

// Batch applies a pre-grouped batch against one file set's owner — the
// routing half of the sdk's client-side batching. Durable batches ride
// one journal group commit on the owning daemon.
func (r *Router) Batch(fileSet string, durable bool, items []wire.BatchItem) ([]wire.BatchResult, error) {
	var results []wire.BatchResult
	err := r.Do(fileSet, func(_ placement.DaemonInfo, c Caller) error {
		resp, err := c.Call(wire.Request{Op: wire.OpBatch, FileSet: fileSet, Durable: durable, Batch: items})
		if err != nil {
			return err
		}
		if len(resp.Results) != len(items) {
			return fmt.Errorf("wire: batch of %d items got %d results", len(items), len(resp.Results))
		}
		results = resp.Results
		return nil
	})
	return results, err
}

// Sync checkpoints every daemon in the fleet (the fleet-wide durability
// barrier); the first error wins but every daemon is attempted.
func (r *Router) Sync() error { return r.SyncTraced(0, 0) }

// SyncTraced is Sync carrying trace context: every fanned-out checkpoint
// joins the caller's trace, so a stitched timeline shows the barrier
// landing on each daemon.
func (r *Router) SyncTraced(trace, parent uint64) error {
	var firstErr error
	for _, d := range r.Map().Daemons {
		c, err := r.Caller(d.Addr)
		if err == nil {
			_, err = c.Call(wire.Request{Op: wire.OpSync, Trace: trace, Parent: parent})
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: sync daemon %d: %w", d.ID, err)
		}
	}
	return firstErr
}

// Forward routes a raw request by its FileSet field — the gateway's (and
// the traced sdk client's) pass-through. The request's trace context rides
// through untouched, and routing retries join its trace as route-retry
// spans. The response keeps the caller's request ID.
func (r *Router) Forward(req wire.Request) (wire.Response, error) {
	var resp wire.Response
	err := r.do(req.Trace, req.FileSet, func(_ placement.DaemonInfo, c Caller) error {
		fwd := req
		got, err := c.Call(fwd)
		resp = got
		return err
	})
	resp.ID = req.ID
	return resp, err
}

// Counters exposes the router's counters (tests and the gateway's stats).
func (r *Router) Counters() *metrics.CounterSet { return r.counters }
