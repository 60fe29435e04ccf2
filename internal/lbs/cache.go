package lbs

import (
	"container/list"
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/geom"
)

// CacheOptions configures a CachedOracle.
type CacheOptions struct {
	// Capacity is the maximum number of cached answers across all
	// shards (default 4096). It is split evenly between shards — the
	// effective capacity rounds down to a multiple of the shard count,
	// and the shard count is clamped so total residency never exceeds
	// Capacity.
	Capacity int
	// Shards is the number of independently locked LRU shards, rounded
	// up to a power of two (default 16). More shards means less lock
	// contention under the Driver's parallel mode.
	Shards int
	// Quantum, when positive, quantizes query coordinates to a grid of
	// this pitch before keying, so that near-identical points share an
	// entry. Zero keys on the exact floating-point bit pattern — hits
	// then replay answers for exactly repeated points only, which keeps
	// the wrapper fully transparent to the estimators.
	//
	// The quantum is expressed in the Metric's unit: plane units under
	// geo.Euclidean (cells of exactly Quantum × Quantum), kilometers
	// under geo.Haversine (cells of Quantum km of latitude by at most
	// Quantum km of longitude — geo.Metric.CellPitch converts, and the
	// shrinking of longitude degrees with latitude makes high-latitude
	// cells conservatively narrow, never too wide).
	Quantum float64
	// Metric is the distance metric of the wrapped service stack. It
	// scales Quantum into per-axis coordinate pitches and must match
	// the inner Querier's metric. The zero value (geo.Euclidean)
	// preserves the historical keying bit for bit.
	Metric geo.Metric
	// Selection labels the fixed server-side filter used through this
	// wrapper and is folded into every cache key. Distinct selections
	// over the same service must use distinct CachedOracle instances
	// (or distinct Selection labels): the functional filter itself
	// cannot be hashed, so the cache trusts this label to identify it.
	Selection string
	// TrustFilter declares that every non-nil per-call filter passed
	// through this wrapper is the one filter the Selection label names
	// (the estimator pattern: one configured Filter for the whole
	// run). Without it, queries carrying a non-nil filter BYPASS the
	// cache entirely — forwarded and charged but never stored or
	// replayed — because the cache cannot tell two functional filters
	// apart and a filtered answer replayed for a differently filtered
	// query would be silently wrong (e.g. an HTTP gateway whose
	// per-request selections vary).
	TrustFilter bool
}

// CacheStats is a point-in-time snapshot of cache effectiveness
// counters, for the cost accounting of experiments.
type CacheStats struct {
	Hits          int64 // answers replayed without touching the service
	Misses        int64 // queries forwarded (and charged) to the service
	Bypasses      int64 // untrusted filtered queries forwarded uncached
	Evictions     int64 // entries dropped by LRU pressure
	Invalidations int64 // entries dropped by mutation (Invalidate/InvalidateAll)
	Restored      int64 // entries loaded from a persisted snapshot (warm restart)
	Entries       int64 // entries currently resident
}

// query kinds, part of the cache key so LR and LNR answers for the
// same point never collide.
const (
	cacheKindLR uint8 = iota
	cacheKindLNR
)

// cacheKey identifies one recorded answer: (quantized point, k,
// selection) plus the interface view the answer came from.
type cacheKey struct {
	kind uint8
	k    int
	qx   uint64
	qy   uint64
	sel  string
}

// hash is FNV-1a over the key fields; the low bits pick the shard.
func (k cacheKey) hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(k.kind))
	mix(uint64(k.k))
	mix(k.qx)
	mix(k.qy)
	for i := 0; i < len(k.sel); i++ {
		h ^= uint64(k.sel[i])
		h *= 1099511628211
	}
	return h
}

// cacheEntry is one recorded answer (LR or LNR per key.kind).
type cacheEntry struct {
	key cacheKey
	lr  []LRRecord
	lnr []LNRRecord
}

// cacheShard is one independently locked LRU segment.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; element values are *cacheEntry
	items map[cacheKey]*list.Element
}

func (sh *cacheShard) get(key cacheKey) (*cacheEntry, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// put inserts (or refreshes) an entry and returns how many entries
// were evicted to make room.
func (sh *cacheShard) put(e *cacheEntry) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[e.key]; ok {
		el.Value = e
		sh.lru.MoveToFront(el)
		return 0
	}
	sh.items[e.key] = sh.lru.PushFront(e)
	evicted := 0
	for sh.lru.Len() > sh.cap {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.items, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

func (sh *cacheShard) len() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.lru.Len()
}

// CachedOracle memoizes the answers of an inner Querier in a
// concurrent sharded LRU keyed by (quantized point, k, selection).
// Cache hits replay the recorded answer without consuming the inner
// service's budget or rate-limiter quota — client-side memoization,
// not a change to the service contract. It implements Querier (and
// therefore the estimators' Oracle interface), so any estimator can
// run over it unchanged.
//
// Records are returned by reference: callers must treat cached answers
// as immutable, exactly as they must treat the simulator's shared
// Attrs/Tags maps.
//
// Concurrent misses on one key are not deduplicated: every call that
// finds the key absent forwards to the inner service (and is charged
// for it), and the last answer stored wins. A call that starts after
// an answer was stored hits unless the entry was since evicted or
// invalidated.
type CachedOracle struct {
	inner   Querier
	quantum float64
	// pitchX/pitchY are the per-axis cell pitches Quantum resolves to
	// under the metric (both equal to quantum under Euclidean).
	pitchX, pitchY float64
	metric         geo.Metric
	sel            string
	trustFilter    bool
	shards         []*cacheShard
	shardMask      uint64
	hits           atomic.Int64
	misses         atomic.Int64
	bypasses       atomic.Int64
	evictions      atomic.Int64
	invalidations  atomic.Int64
	restored       atomic.Int64
}

var _ Querier = (*CachedOracle)(nil)

// NewCachedOracle wraps inner with an answer cache. Unfiltered
// queries are always cacheable; queries carrying a non-nil functional
// filter are cached only when opts.TrustFilter declares the filter
// fixed (the estimator pattern) and bypass the cache otherwise, so a
// front shared by differently filtered callers (an HTTP gateway) can
// never replay a filtered answer for the wrong selection.
func NewCachedOracle(inner Querier, opts CacheOptions) *CachedOracle {
	if opts.Capacity <= 0 {
		opts.Capacity = 4096
	}
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	shards := 1
	for shards < opts.Shards {
		shards *= 2
	}
	// A shard holds at least one entry, so clamp the shard count to
	// the capacity: total residency must never exceed Capacity.
	for shards > 1 && shards > opts.Capacity {
		shards /= 2
	}
	perShard := opts.Capacity / shards
	px, py := opts.Metric.CellPitch(opts.Quantum)
	c := &CachedOracle{
		inner:       inner,
		quantum:     opts.Quantum,
		pitchX:      px,
		pitchY:      py,
		metric:      opts.Metric,
		sel:         opts.Selection,
		trustFilter: opts.TrustFilter,
		shards:      make([]*cacheShard, shards),
		shardMask:   uint64(shards - 1),
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:   perShard,
			lru:   list.New(),
			items: make(map[cacheKey]*list.Element, perShard),
		}
	}
	return c
}

// normZero collapses negative zero onto positive zero: -0.0 and +0.0
// are the same query point (they compare equal and yield identical
// distances), but their Float64bits differ, so keying on the raw bit
// pattern would give the one point two cache entries — and, through
// math.Floor, let quantized keys straddle the sign at a cell boundary.
func normZero(v float64) float64 {
	if v == 0 {
		return 0
	}
	return v
}

// keyFor quantizes p and assembles the cache key.
func (c *CachedOracle) keyFor(kind uint8, p geom.Point) cacheKey {
	x, y := normZero(p.X), normZero(p.Y)
	var qx, qy uint64
	if c.quantum > 0 {
		qx = uint64(int64(normZero(math.Floor(x / c.pitchX))))
		qy = uint64(int64(normZero(math.Floor(y / c.pitchY))))
	} else {
		qx = math.Float64bits(x)
		qy = math.Float64bits(y)
	}
	return cacheKey{kind: kind, k: c.inner.K(), qx: qx, qy: qy, sel: c.sel}
}

func (c *CachedOracle) shardFor(key cacheKey) *cacheShard {
	return c.shards[key.hash()&c.shardMask]
}

// store records an answer and maintains the eviction counter.
func (c *CachedOracle) store(e *cacheEntry) {
	if n := c.shardFor(e.key).put(e); n > 0 {
		c.evictions.Add(int64(n))
	}
}

// Stats returns a snapshot of the effectiveness counters.
func (c *CachedOracle) Stats() CacheStats {
	var entries int64
	for _, sh := range c.shards {
		entries += int64(sh.len())
	}
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Bypasses:      c.bypasses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Restored:      c.restored.Load(),
		Entries:       entries,
	}
}

// cellRect reconstructs the region of query points that share a key:
// the per-axis quantization cell [q·pitch, (q+1)·pitch) under a
// positive quantum, or the single exact point keyed by its bit
// pattern. It is the geometric footprint Invalidate tests against the
// dirty region (both in raw coordinate space, whatever the metric).
func (c *CachedOracle) cellRect(key cacheKey) geom.Rect {
	if c.quantum > 0 {
		x0 := float64(int64(key.qx)) * c.pitchX
		y0 := float64(int64(key.qy)) * c.pitchY
		return geom.Rect{
			Min: geom.Point{X: x0, Y: y0},
			Max: geom.Point{X: x0 + c.pitchX, Y: y0 + c.pitchY},
		}
	}
	p := geom.Point{X: math.Float64frombits(key.qx), Y: math.Float64frombits(key.qy)}
	return geom.Rect{Min: p, Max: p}
}

// removeIf drops every entry whose key matches pred and returns how
// many were removed.
func (sh *cacheShard) removeIf(pred func(cacheKey) bool) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	removed := 0
	var next *list.Element
	for el := sh.lru.Front(); el != nil; el = next {
		next = el.Next()
		key := el.Value.(*cacheEntry).key
		if pred(key) {
			sh.lru.Remove(el)
			delete(sh.items, key)
			removed++
		}
	}
	return removed
}

// Invalidate drops every cached answer whose query cell intersects
// region and returns how many entries were dropped. Mutation-driven
// epoch invalidation calls this with the dirty region of a batch of
// mutations — the bounding box of disks of the service's maximum
// match radius around every mutated effective location — so entries
// for queries provably unaffected by the mutation survive. An
// infinite or universe-covering region degenerates to InvalidateAll.
func (c *CachedOracle) Invalidate(region geom.Rect) int64 {
	var dropped int64
	for _, sh := range c.shards {
		dropped += int64(sh.removeIf(func(key cacheKey) bool {
			cell := c.cellRect(key)
			return cell.Min.X <= region.Max.X && region.Min.X <= cell.Max.X &&
				cell.Min.Y <= region.Max.Y && region.Min.Y <= cell.Max.Y
		}))
	}
	c.invalidations.Add(dropped)
	return dropped
}

// InvalidateAll drops every cached answer and returns how many
// entries were dropped — the correct response to a mutation whose
// effect radius is unbounded (no MaxRadius on the service).
func (c *CachedOracle) InvalidateAll() int64 {
	var dropped int64
	for _, sh := range c.shards {
		dropped += int64(sh.removeIf(func(cacheKey) bool { return true }))
	}
	c.invalidations.Add(dropped)
	return dropped
}

// cacheable reports whether a query carrying this filter may use the
// cache (see CacheOptions.TrustFilter).
func (c *CachedOracle) cacheable(filter Filter) bool {
	return filter == nil || c.trustFilter
}

// Inner returns the wrapped querier, so observers (e.g. the stats
// endpoint of internal/httpapi) can walk a wrapper chain down to the
// service that owns the budget.
func (c *CachedOracle) Inner() Querier { return c.inner }

// Bounds implements Querier.
func (c *CachedOracle) Bounds() geom.Rect { return c.inner.Bounds() }

// K implements Querier.
func (c *CachedOracle) K() int { return c.inner.K() }

// QueryCount reports the inner service's query count — the paper's
// cost metric. Cache hits do not appear in it; Stats().Hits counts
// them.
func (c *CachedOracle) QueryCount() int64 { return c.inner.QueryCount() }

// cachedQuery is the shared single-point lookup shape of QueryLR and
// QueryLNR: hit → replay, untrusted filter → bypass, miss → forward,
// record, count. Errors are never cached.
func cachedQuery[T any](c *CachedOracle, ctx context.Context, q geom.Point, filter Filter, kind uint8,
	fetch func(context.Context, geom.Point, Filter) ([]T, error),
	load func(*cacheEntry) []T, entry func(cacheKey, []T) *cacheEntry) ([]T, error) {

	if !c.cacheable(filter) {
		c.bypasses.Add(1)
		return fetch(ctx, q, filter)
	}
	key := c.keyFor(kind, q)
	if e, ok := c.shardFor(key).get(key); ok {
		c.hits.Add(1)
		return load(e), nil
	}
	recs, err := fetch(ctx, q, filter)
	if err != nil {
		if IsPartial(err) {
			// A degraded answer is served but never memoized: once the
			// missing member recovers, the same key must re-fetch the
			// full answer instead of replaying the contaminated one.
			c.bypasses.Add(1)
			return recs, err
		}
		return nil, err
	}
	c.misses.Add(1)
	c.store(entry(key, recs))
	return recs, nil
}

// cachedBatch is the shared batch shape: answer hits from the cache,
// forward the remaining misses as one (smaller) batch, record what
// came back. Partial-budget semantics follow Service.QueryLRBatch —
// nil entries mark the positions the budget could not cover, and
// cache hits are answered even after the budget dies (memoized
// answers are free). Untrusted filtered batches bypass entirely.
func cachedBatch[T any](c *CachedOracle, ctx context.Context, pts []geom.Point, filter Filter, kind uint8,
	fetch func(context.Context, []geom.Point, Filter) ([][]T, error),
	load func(*cacheEntry) []T, entry func(cacheKey, []T) *cacheEntry) ([][]T, error) {

	if !c.cacheable(filter) {
		c.bypasses.Add(int64(len(pts)))
		return fetch(ctx, pts, filter)
	}
	out := make([][]T, len(pts))
	var missIdx []int
	var missPts []geom.Point
	var missKeys []cacheKey
	for i, p := range pts {
		key := c.keyFor(kind, p)
		if e, ok := c.shardFor(key).get(key); ok {
			c.hits.Add(1)
			out[i] = load(e)
			continue
		}
		missIdx = append(missIdx, i)
		missPts = append(missPts, p)
		missKeys = append(missKeys, key)
	}
	if len(missPts) == 0 {
		return out, nil
	}
	answers, err := fetch(ctx, missPts, filter)
	partial := IsPartial(err)
	for j, recs := range answers {
		if recs == nil {
			continue
		}
		out[missIdx[j]] = recs
		if partial {
			// The annotation does not say which positions were
			// degraded, so none of the batch is memoized.
			c.bypasses.Add(1)
			continue
		}
		c.misses.Add(1)
		c.store(entry(missKeys[j], recs))
	}
	return out, err
}

// QueryLR implements Querier: a hit replays the recorded answer, a
// miss forwards to the inner service and records the result.
func (c *CachedOracle) QueryLR(ctx context.Context, q geom.Point, filter Filter) ([]LRRecord, error) {
	return cachedQuery(c, ctx, q, filter, cacheKindLR, c.inner.QueryLR,
		func(e *cacheEntry) []LRRecord { return e.lr },
		func(k cacheKey, recs []LRRecord) *cacheEntry { return &cacheEntry{key: k, lr: recs} })
}

// QueryLNR implements Querier (see QueryLR).
func (c *CachedOracle) QueryLNR(ctx context.Context, q geom.Point, filter Filter) ([]LNRRecord, error) {
	return cachedQuery(c, ctx, q, filter, cacheKindLNR, c.inner.QueryLNR,
		func(e *cacheEntry) []LNRRecord { return e.lnr },
		func(k cacheKey, recs []LNRRecord) *cacheEntry { return &cacheEntry{key: k, lnr: recs} })
}

// QueryLRBatch implements Querier (see cachedBatch for semantics).
func (c *CachedOracle) QueryLRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LRRecord, error) {
	return cachedBatch(c, ctx, pts, filter, cacheKindLR, c.inner.QueryLRBatch,
		func(e *cacheEntry) []LRRecord { return e.lr },
		func(k cacheKey, recs []LRRecord) *cacheEntry { return &cacheEntry{key: k, lr: recs} })
}

// QueryLNRBatch implements Querier (see cachedBatch for semantics).
func (c *CachedOracle) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LNRRecord, error) {
	return cachedBatch(c, ctx, pts, filter, cacheKindLNR, c.inner.QueryLNRBatch,
		func(e *cacheEntry) []LNRRecord { return e.lnr },
		func(k cacheKey, recs []LNRRecord) *cacheEntry { return &cacheEntry{key: k, lnr: recs} })
}
