package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"hsgf/internal/graph"
)

// DefaultRowCache is the default bound (in rows, across all shards) of
// the feature-row cache. Entries hold compact rows — vocabulary ids and
// counts, not JSON text — so the bound is on row count, not bytes; a
// row on the benchmark graph is a few hundred bytes (CacheStats.Bytes
// reports the total).
const DefaultRowCache = 65536

// cacheShardCount shards the row cache to keep lock hold times short
// under concurrent lookups. Power of two so the shard index is a mask.
const cacheShardCount = 16

// rowKey identifies one cached feature row within a serving epoch: the
// root plus the resolved per-root limits fingerprint. The limits ride
// in the key because a budget-truncated row is a deterministic function
// of (graph, options, budget) — the same root under a different budget
// is a different row, and byte-identical replay requires never mixing
// them. The epoch is NOT part of the key: entries carry it and are
// dropped lazily on mismatch, so a reload or ingest publish invalidates
// the whole cache without touching a single entry.
type rowKey struct {
	root     graph.NodeID
	budget   int64
	deadline time.Duration
}

// rowEntry is one LRU cell. epoch pins the serving generation the row
// was extracted under; a lookup from a newer epoch unlinks it.
type rowEntry struct {
	key        rowKey
	epoch      uint64
	res        rowResult
	prev, next *rowEntry
}

// flight is one in-progress extraction other requests can coalesce on:
// the leader computes the row once, fulfils the flight, and every
// follower waiting on done shares the row. Followers read the
// result fields only after done is closed (the close is the
// happens-before edge). shared is false when the leader's row was not
// deterministic (deadline/cancel/panic flags) — followers then compute
// their own row rather than replay a nondeterministic one.
type flight struct {
	done   chan struct{}
	epoch  uint64
	res    rowResult
	shared bool
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	bytes   int64 // len(res.data) summed over entries
	entries map[rowKey]*rowEntry
	head    *rowEntry // most recently used
	tail    *rowEntry // least recently used
	flights map[rowKey]*flight
}

// rowCache is the sharded, bounded LRU feature-row cache plus the
// singleflight table. Rows are immutable per serving epoch, so the
// cache never needs explicit invalidation: Server.publish bumps the
// epoch on every snapshot swap (hot reload, ingest publish) and stale
// entries die lazily on their next lookup or fall off the LRU tail.
type rowCache struct {
	shards [cacheShardCount]cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evicted   atomic.Int64
}

func newRowCache(capacity int) *rowCache {
	if capacity <= 0 {
		capacity = DefaultRowCache
	}
	perShard := (capacity + cacheShardCount - 1) / cacheShardCount
	c := &rowCache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].entries = make(map[rowKey]*rowEntry)
		c.shards[i].flights = make(map[rowKey]*flight)
	}
	return c
}

func (c *rowCache) shard(key rowKey) *cacheShard {
	// Fibonacci mix so stride-sampled roots spread across shards.
	h := uint64(uint32(key.root)) * 0x9E3779B97F4A7C15
	return &c.shards[(h>>32)&(cacheShardCount-1)]
}

// get returns the cached row for key under epoch. An entry from an
// older epoch is unlinked on sight — the lazy half of generation-keyed
// invalidation — and reported as a miss.
func (c *rowCache) get(key rowKey, epoch uint64) (rowResult, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	e := sh.entries[key]
	if e == nil {
		sh.mu.Unlock()
		c.misses.Add(1)
		return rowResult{}, false
	}
	if e.epoch != epoch {
		sh.remove(e)
		sh.mu.Unlock()
		c.misses.Add(1)
		return rowResult{}, false
	}
	sh.moveToFront(e)
	res := e.res
	sh.mu.Unlock()
	c.hits.Add(1)
	return res, true
}

// put inserts (or refreshes) a row, evicting from the LRU tail past the
// shard bound. Caller guarantees res.data is never mutated afterwards.
func (c *rowCache) put(key rowKey, epoch uint64, res rowResult) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e := sh.entries[key]; e != nil {
		sh.bytes += int64(len(res.data) - len(e.res.data))
		e.epoch, e.res = epoch, res
		sh.moveToFront(e)
		sh.mu.Unlock()
		return
	}
	e := &rowEntry{key: key, epoch: epoch, res: res}
	sh.entries[key] = e
	sh.bytes += int64(len(res.data))
	sh.pushFront(e)
	for len(sh.entries) > sh.cap && sh.tail != nil {
		sh.remove(sh.tail)
		c.evicted.Add(1)
	}
	sh.mu.Unlock()
}

// join is the atomic lookup-or-coalesce step for a root that missed the
// first cache pass: under one shard lock it re-checks the entry (a
// concurrent request may have filled it since), then either joins an
// in-flight extraction for the same (epoch, key) or registers the
// caller as its leader. Exactly one of hit / (f, leader) / (f,
// !leader) describes the outcome.
func (c *rowCache) join(key rowKey, epoch uint64) (res rowResult, hit bool, f *flight, leader bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[key]; e != nil && e.epoch == epoch {
		sh.moveToFront(e)
		c.hits.Add(1)
		return e.res, true, nil, false
	}
	if f := sh.flights[key]; f != nil && f.epoch == epoch {
		return rowResult{}, false, f, false
	}
	f = &flight{done: make(chan struct{}), epoch: epoch}
	sh.flights[key] = f
	return rowResult{}, false, f, true
}

// fulfill completes a flight: the result is published to followers
// (result fields are written before the close, so every waiter observes
// them), cached when it is deterministic, and the flight deregistered.
// Only the flight's leader calls fulfill, exactly once.
func (c *rowCache) fulfill(key rowKey, f *flight, res rowResult, cacheable bool) {
	f.res, f.shared = res, cacheable
	if cacheable {
		c.put(key, f.epoch, res)
	}
	sh := c.shard(key)
	sh.mu.Lock()
	if sh.flights[key] == f {
		delete(sh.flights, key)
	}
	sh.mu.Unlock()
	close(f.done)
}

// abandon releases a flight whose leader cannot produce a result (error
// path, handler panic): followers wake and compute their own rows.
func (c *rowCache) abandon(key rowKey, f *flight) {
	c.fulfill(key, f, rowResult{}, false)
}

// usage counts the entries and compact row bytes held across all
// shards (stale epochs included — they occupy capacity until dropped).
func (c *rowCache) usage() (rows int, bytes int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		rows += len(sh.entries)
		bytes += sh.bytes
		sh.mu.Unlock()
	}
	return rows, bytes
}

// remove drops e from the shard: list, index and byte count.
func (sh *cacheShard) remove(e *rowEntry) {
	sh.unlink(e)
	delete(sh.entries, e.key)
	sh.bytes -= int64(len(e.res.data))
}

func (sh *cacheShard) pushFront(e *rowEntry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard) unlink(e *rowEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cacheShard) moveToFront(e *rowEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// CacheStats is the feature-row cache block of /debug/stats and
// /v1/meta; absent when the cache is disabled. Hits, misses and
// coalesced count per root (one 8-root request contributes up to 8),
// so hit ratios are row ratios.
type CacheStats struct {
	Enabled  bool `json:"enabled"`
	Size     int  `json:"size"`
	Capacity int  `json:"capacity"`
	// Bytes is the compact row bytes the cache holds, stale-epoch
	// entries included; VocabKeys is the number of encoding keys the
	// serving snapshot has interned, whose strings every row shares.
	Bytes     int64 `json:"bytes"`
	VocabKeys int   `json:"vocab_keys"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	// Coalesced counts rows a request obtained from a concurrent
	// request's in-flight extraction instead of computing them itself.
	Coalesced int64 `json:"coalesced"`
	Evicted   int64 `json:"evicted"`
	// Epoch is the current serving epoch; it advances on every snapshot
	// publish (hot reload, ingest batch), which is what invalidates
	// every older cached row.
	Epoch uint64 `json:"epoch"`
}

// cacheStats snapshots the cache counters; nil when the cache is off.
func (s *Server) cacheStats() *CacheStats {
	if s.cache == nil {
		return nil
	}
	rows, bytes := s.cache.usage()
	return &CacheStats{
		Enabled:   true,
		Size:      rows,
		Capacity:  s.cfg.RowCache,
		Bytes:     bytes,
		VocabKeys: s.snap.Load().vocab.size(),
		Hits:      s.cache.hits.Load(),
		Misses:    s.cache.misses.Load(),
		Coalesced: s.cache.coalesced.Load(),
		Evicted:   s.cache.evicted.Load(),
		Epoch:     s.epoch.Load(),
	}
}
