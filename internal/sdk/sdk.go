// Package sdk is the high-throughput client layer over the wire protocol:
// pipelined connections (tagged frames, many in-flight requests per
// connection, out-of-order completion), per-daemon connection pools with
// health checks and power-of-two-choices load spreading, and client-side
// op batching that folds small metadata writes for the same owner into
// single journal group commits.
//
// The layering mirrors the paper's client/server split: clients talk to
// whichever daemon owns a file set (internal/fleet routes by the cluster
// map) and the sdk makes that path saturate heterogeneous daemons instead
// of serializing on one round trip at a time. The connections are plain
// wire.Clients (tagged frames negotiated by OpHello at dial); the sdk adds
// no transport of its own.
//
// Gateway (gateway.go) is the same machinery turned server-side: a
// stateless wire endpoint that fronts the fleet, scaled horizontally by
// running N of them with peer-shared cluster-map caches.
package sdk

import (
	"time"

	"anufs/internal/metrics"
	"anufs/internal/obs"
)

// Defaults for Options' zero values.
const (
	// DefaultPoolSize is connections per target daemon.
	DefaultPoolSize = 4
	// DefaultMaxBatch caps one coalesced batch (well under
	// wire.MaxBatchItems).
	DefaultMaxBatch = 64
	// DefaultHealthInterval is the pool's ping cadence.
	DefaultHealthInterval = 2 * time.Second
)

// Options parameterizes Dial, NewPool, and NewClient. The zero value of
// every field except Authority is usable.
type Options struct {
	// Authority is the fleet authority's wire address (NewClient only).
	Authority string
	// Peers are additional cluster-map sources tried before the authority
	// — typically the other gateways of a tier.
	Peers []string
	// Timeout bounds each call's wait for its response: 0 means
	// wire.DefaultCallTimeout, negative disables the deadline.
	Timeout time.Duration
	// PoolSize is connections per target address (default DefaultPoolSize).
	PoolSize int
	// MaxBatch caps one coalesced batch (default DefaultMaxBatch).
	MaxBatch int
	// BatchDelay is how long a small write may wait for company before its
	// batch is sent; 0 disables client-side batching.
	BatchDelay time.Duration
	// Durable asks the server to checkpoint batched writes before acking —
	// the whole batch rides one journal group commit.
	Durable bool
	// HealthInterval is the pool's ping cadence (default
	// DefaultHealthInterval; negative disables health checks).
	HealthInterval time.Duration
	// Budget bounds one routed operation end to end (default
	// fleet.DefaultRouteBudget).
	Budget time.Duration
	// Obs receives sdk counters, gauges, and histograms; nil disables.
	Obs *obs.Registry

	// counters is the shared counter set pools report redials and health
	// failures into — set by NewClient so every pool of one client sums
	// into the same series instead of colliding per-pool snapshots.
	counters *metrics.CounterSet
}

// withDefaults fills the zero values.
func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = DefaultPoolSize
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.HealthInterval == 0 {
		o.HealthInterval = DefaultHealthInterval
	}
	return o
}
