package fleet

import (
	"fmt"
	"sync"

	"anufs/internal/metrics"
	"anufs/internal/placement"
	"anufs/internal/wire"
)

// Caller is the transport the router works over: anything that can carry
// one wire request/response exchange. *wire.Client satisfies it (one
// pipelined connection, which is also the sdk's Conn), and so does the
// sdk's Pool — the router's retry discipline is transport-agnostic because every
// implementation surfaces errors through wire.ResponseError's typed
// vocabulary.
type Caller interface {
	Call(req wire.Request) (wire.Response, error)
	Close() error
}

// Map-cache counter names.
const (
	CtrMapFetches  = "fleet_map_fetches"
	CtrMapPeerHits = "fleet_map_peer_hits"
)

// MapCache is a shared epoch-floored cluster-map cache: many routers (or
// many gateway connections) read one cached map, and a wrong-owner
// rejection raises the floor (Invalidate) so the next Get refetches until
// the map reaches that epoch. Sources are tried in order — peers first,
// authority last, by convention — and a refresh stops at the first source
// whose map satisfies the floor, which is what lets a tier of gateways
// absorb map churn without stampeding the authority.
type MapCache struct {
	sources  []string
	dial     func(addr string) (Caller, error)
	counters *metrics.CounterSet

	mu     sync.Mutex
	conns  map[string]Caller
	cur    *placement.ClusterMap
	floor  uint64
	closed bool
}

// NewMapCache builds a cache over the ordered map sources. counters may
// be nil (private accounting).
func NewMapCache(sources []string, dial func(addr string) (Caller, error), counters *metrics.CounterSet) *MapCache {
	if counters == nil {
		counters = metrics.NewCounterSet()
	}
	return &MapCache{
		sources:  sources,
		dial:     dial,
		counters: counters,
		conns:    map[string]Caller{},
	}
}

// Cached returns the cached map without any fetch (nil before the first
// successful Refresh).
func (m *MapCache) Cached() *placement.ClusterMap {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur
}

// Invalidate raises the epoch floor: the cached map is considered stale
// until a refresh reaches at least epoch. Called with the epoch carried
// by a wrong-owner rejection.
func (m *MapCache) Invalidate(epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch > m.floor {
		m.floor = epoch
	}
}

// Get returns the cached map when it satisfies the floor, refreshing
// otherwise. The cached (possibly stale) map is returned alongside the
// error when every source fails — callers route on their best knowledge.
func (m *MapCache) Get() (*placement.ClusterMap, error) {
	m.mu.Lock()
	cur, floor := m.cur, m.floor
	m.mu.Unlock()
	if cur != nil && cur.Epoch >= floor {
		return cur, nil
	}
	return m.Refresh()
}

// Refresh fetches the map from the sources in order, installing any map
// newer than the cached one and stopping at the first source that
// satisfies the floor. Connections are dialed lazily, cached, and dropped
// on call failure; no network I/O happens under the cache lock. The
// error is non-nil only when no source answered.
func (m *MapCache) Refresh() (*placement.ClusterMap, error) {
	m.mu.Lock()
	floor := m.floor
	m.mu.Unlock()
	var firstErr error
	answered := false
	for i, addr := range m.sources {
		c, err := m.conn(addr)
		if err == nil {
			var resp wire.Response
			resp, err = c.Call(wire.Request{Op: wire.OpMap})
			if err != nil {
				m.drop(addr)
			} else {
				var cm *placement.ClusterMap
				cm, err = placement.DecodeClusterMap(resp.Map)
				if err == nil {
					answered = true
					m.counters.Add(CtrMapFetches, 1)
					m.install(cm)
					if cm.Epoch >= floor {
						if i < len(m.sources)-1 {
							m.counters.Add(CtrMapPeerHits, 1)
						}
						break
					}
				}
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: map source %s: %w", addr, err)
		}
	}
	cur := m.Cached()
	if answered {
		return cur, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("fleet: map cache has no sources")
	}
	return cur, firstErr
}

// install keeps the newer of the cached and fetched maps (maps only move
// forward).
func (m *MapCache) install(cm *placement.ClusterMap) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur == nil || cm.Epoch > m.cur.Epoch {
		m.cur = cm
	}
}

// conn returns the cached connection to addr, dialing on first use (the
// dial runs outside the lock; a lost race closes the extra connection).
func (m *MapCache) conn(addr string) (Caller, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("fleet: map cache closed")
	}
	if c, ok := m.conns[addr]; ok {
		m.mu.Unlock()
		return c, nil
	}
	m.mu.Unlock()
	c, err := m.dial(addr)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if prev, ok := m.conns[addr]; ok {
		m.mu.Unlock()
		go c.Close()
		return prev, nil
	}
	if m.closed {
		m.mu.Unlock()
		go c.Close()
		return nil, fmt.Errorf("fleet: map cache closed")
	}
	m.conns[addr] = c
	m.mu.Unlock()
	return c, nil
}

// drop discards a cached connection (it errored; the next use redials).
func (m *MapCache) drop(addr string) {
	m.mu.Lock()
	c, ok := m.conns[addr]
	delete(m.conns, addr)
	m.mu.Unlock()
	if ok {
		c.Close()
	}
}

// Close tears down the cached source connections; further use errors.
func (m *MapCache) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	conns := m.conns
	m.conns = map[string]Caller{}
	m.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}
