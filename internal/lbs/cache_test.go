package lbs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
)

// TestCacheHitsDontConsumeBudget: with a budget of exactly the number
// of distinct points, arbitrarily many repeats still succeed — hits
// replay recorded answers for free.
func TestCacheHitsDontConsumeBudget(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2, Budget: 3})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9), geom.Pt(5, 5)}

	want := make([][]LRRecord, len(pts))
	for i, p := range pts {
		recs, err := c.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = recs
	}
	for rep := 0; rep < 10; rep++ {
		for i, p := range pts {
			recs, err := c.QueryLR(ctx, p, nil)
			if err != nil {
				t.Fatalf("repeat %d point %d: %v", rep, i, err)
			}
			if len(recs) != len(want[i]) || recs[0].ID != want[i][0].ID {
				t.Fatalf("repeat answer diverged: %+v vs %+v", recs, want[i])
			}
		}
	}
	if n := svc.QueryCount(); n != 3 {
		t.Errorf("QueryCount = %d, want 3 (hits must not consume budget)", n)
	}
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 30 {
		t.Errorf("stats = %+v, want 3 misses / 30 hits", st)
	}
	// A genuinely new point now fails: the budget is spent.
	if _, err := c.QueryLR(ctx, geom.Pt(2.5, 7.5), nil); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("new point err = %v, want ErrBudgetExhausted", err)
	}
	// ... but cached points keep answering.
	if _, err := c.QueryLR(ctx, pts[0], nil); err != nil {
		t.Errorf("cached point after exhaustion: %v", err)
	}
}

// TestCacheEvictionUnderPressure: a tiny cache stays within capacity
// and reports evictions.
func TestCacheEvictionUnderPressure(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1})
	c := NewCachedOracle(svc, CacheOptions{Capacity: 8, Shards: 1})
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := c.QueryLR(ctx, geom.Pt(float64(i%10), float64(i/10)), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > 8 {
		t.Errorf("resident entries %d exceed capacity 8", st.Entries)
	}
	if st.Evictions < 92 {
		t.Errorf("evictions = %d, want ≥ 92 for 100 distinct keys in 8 slots", st.Evictions)
	}
	if st.Misses != 100 {
		t.Errorf("misses = %d, want 100 (every point distinct)", st.Misses)
	}
}

// TestCacheLRULeastRecentFirst: re-touching an entry protects it from
// eviction.
func TestCacheLRULeastRecentFirst(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1})
	c := NewCachedOracle(svc, CacheOptions{Capacity: 2, Shards: 1})
	ctx := context.Background()
	a, b, d := geom.Pt(1, 1), geom.Pt(9, 9), geom.Pt(5, 5)
	c.QueryLR(ctx, a, nil)
	c.QueryLR(ctx, b, nil)
	c.QueryLR(ctx, a, nil) // a is now most recent
	c.QueryLR(ctx, d, nil) // evicts b
	before := c.Stats().Hits
	c.QueryLR(ctx, a, nil)
	if c.Stats().Hits != before+1 {
		t.Errorf("a was evicted although most recently used")
	}
	c.QueryLR(ctx, b, nil)
	if got := c.Stats().Misses; got != 4 {
		t.Errorf("misses = %d, want 4 (a, b, d, then b again after eviction)", got)
	}
}

// TestCacheKindsDontCollide: an LR and an LNR answer for the same
// point are distinct entries.
func TestCacheKindsDontCollide(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	p := geom.Pt(5, 5)
	if _, err := c.QueryLR(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	recs, err := c.QueryLNR(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("LNR answer empty")
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want two misses (separate kinds)", st)
	}
}

// TestCacheQuantization: with a coarse quantum, near-identical points
// share an entry.
func TestCacheQuantization(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1})
	c := NewCachedOracle(svc, CacheOptions{Quantum: 1.0})
	ctx := context.Background()
	c.QueryLR(ctx, geom.Pt(5.1, 5.1), nil)
	c.QueryLR(ctx, geom.Pt(5.9, 5.9), nil) // same 1×1 cell
	c.QueryLR(ctx, geom.Pt(6.1, 5.1), nil) // next cell over
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses / 1 hit under quantization", st)
	}
}

// TestCacheBatchMixedHitsAndMisses: a batch containing cached and
// novel points only charges the novel ones.
func TestCacheBatchMixedHitsAndMisses(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	warm := []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9)}
	if _, err := c.QueryLRBatch(ctx, warm, nil); err != nil {
		t.Fatal(err)
	}
	mixed := []geom.Point{geom.Pt(1, 1), geom.Pt(5, 5), geom.Pt(9, 9), geom.Pt(0, 0)}
	answers, err := c.QueryLRBatch(ctx, mixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		if a == nil {
			t.Errorf("answer %d nil", i)
		}
	}
	if n := svc.QueryCount(); n != 4 {
		t.Errorf("QueryCount = %d, want 4 (2 warm + 2 novel)", n)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 4 {
		t.Errorf("stats = %+v, want 2 hits / 4 misses", st)
	}
}

// TestCacheBatchPartialBudget: when the inner budget dies mid-batch,
// cache hits still answer and only uncovered misses stay nil.
func TestCacheBatchPartialBudget(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1, Budget: 3})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	// Spend 2 of 3 budget on warm points.
	if _, err := c.QueryLRBatch(ctx, []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9)}, nil); err != nil {
		t.Fatal(err)
	}
	// hit, miss (charged), hit, miss (budget dead), miss (budget dead)
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(5, 5), geom.Pt(9, 9), geom.Pt(2, 2), geom.Pt(3, 3)}
	answers, err := c.QueryLRBatch(ctx, pts, nil)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	for _, i := range []int{0, 1, 2} {
		if answers[i] == nil {
			t.Errorf("answer %d nil, want served", i)
		}
	}
	for _, i := range []int{3, 4} {
		if answers[i] != nil {
			t.Errorf("answer %d served beyond budget", i)
		}
	}
	if n := svc.QueryCount(); n != 3 {
		t.Errorf("QueryCount = %d, want 3", n)
	}
}

// TestCacheConcurrent drives overlapping point sets from many
// goroutines (run under -race): every answer must be consistent with
// the uncached service and the hit/miss accounting must add up. The
// cache does not dedup concurrent misses on one key, so the miss bound
// allows one extra miss per call that started while another call on
// the same point was still in flight.
func TestCacheConcurrent(t *testing.T) {
	db := testDB(t)
	svc := NewService(db, Options{K: 2})
	ref := NewService(db, Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{Capacity: 64, Shards: 4})
	ctx := context.Background()

	// 32 distinct points shared by all goroutines.
	pts := make([]geom.Point, 32)
	rng := rand.New(rand.NewSource(7))
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	want := make([][]LRRecord, len(pts))
	for i, p := range pts {
		want[i], _ = ref.QueryLR(ctx, p, nil)
	}

	const goroutines, rounds = 8, 40
	inflight := make([]atomic.Int32, len(pts))
	var overlapped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(len(pts))
				if inflight[i].Add(1) > 1 {
					overlapped.Add(1)
				}
				var recs []LRRecord
				var err error
				if r%3 == 0 {
					var batch [][]LRRecord
					batch, err = c.QueryLRBatch(ctx, pts[i:i+1], nil)
					if err == nil {
						recs = batch[0]
					}
				} else {
					recs, err = c.QueryLR(ctx, pts[i], nil)
				}
				inflight[i].Add(-1)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if len(recs) != len(want[i]) || (len(recs) > 0 && recs[0].ID != want[i][0].ID) {
					t.Errorf("goroutine %d: answer for point %d diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses != goroutines*rounds {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, goroutines*rounds)
	}
	if svc.QueryCount() != st.Misses {
		t.Errorf("inner queries %d != misses %d", svc.QueryCount(), st.Misses)
	}
	// A miss is the first for its point, follows an eviction, or
	// overlapped another call on the same point still in flight.
	if bound := int64(len(pts)) + st.Evictions + overlapped.Load(); st.Misses > bound {
		t.Errorf("misses %d exceed distinct points %d + evictions %d + overlapped calls %d",
			st.Misses, len(pts), st.Evictions, overlapped.Load())
	}
}

// TestCacheSelectionKeysDistinct: two wrappers with different
// Selection labels over the same service never share entries (the
// key includes the selection). The filtered wrapper declares its
// fixed filter via TrustFilter — the estimator pattern.
func TestCacheSelectionKeysDistinct(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 4})
	all := NewCachedOracle(svc, CacheOptions{})
	cafes := NewCachedOracle(svc, CacheOptions{Selection: "category=cafe", TrustFilter: true})
	ctx := context.Background()
	p := geom.Pt(5, 5)
	full, err := all.QueryLR(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := cafes.QueryLR(ctx, p, CategoryFilter("cafe"))
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) >= len(full) {
		t.Fatalf("filter did not restrict: %d vs %d", len(filtered), len(full))
	}
	for _, r := range filtered {
		if r.Category != "cafe" {
			t.Errorf("filtered answer leaked %s", r.Category)
		}
	}
	// The trusted filtered answer is cached under its own key.
	if _, err := cafes.QueryLR(ctx, p, CategoryFilter("cafe")); err != nil {
		t.Fatal(err)
	}
	if st := cafes.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("trusted-filter stats = %+v, want 1 hit / 1 miss", st)
	}
}

// TestCacheUntrustedFilterBypasses: without TrustFilter, a wrapper
// shared by differently filtered callers (the HTTP gateway pattern)
// must never replay an answer across filters — in either order.
func TestCacheUntrustedFilterBypasses(t *testing.T) {
	ctx := context.Background()
	p := geom.Pt(5, 5)

	// Filtered first: the bypassed answer must not poison the cache.
	c := NewCachedOracle(NewService(testDB(t), Options{K: 4}), CacheOptions{})
	filtered, err := c.QueryLR(ctx, p, CategoryFilter("school"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.QueryLR(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(filtered) {
		t.Fatalf("unfiltered answer %d records after filtered %d — cache replayed across filters", len(full), len(filtered))
	}
	if st := c.Stats(); st.Bypasses != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 bypass / 1 miss", st)
	}

	// Unfiltered first: the cached full answer must not serve a
	// filtered query.
	c2 := NewCachedOracle(NewService(testDB(t), Options{K: 4}), CacheOptions{})
	full2, err := c2.QueryLR(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	filtered2, err := c2.QueryLR(ctx, p, CategoryFilter("school"))
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered2) >= len(full2) {
		t.Fatalf("filtered answer %d records, full %d — cache replayed across filters", len(filtered2), len(full2))
	}
	for _, r := range filtered2 {
		if r.Category != "school" {
			t.Errorf("filtered answer leaked %s", r.Category)
		}
	}
	// Batch path bypasses too.
	answers, err := c2.QueryLRBatch(ctx, []geom.Point{p, p}, CategoryFilter("cafe"))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		for _, r := range a {
			if r.Category != "cafe" {
				t.Errorf("batch answer %d leaked %s", i, r.Category)
			}
		}
	}
	if st := c2.Stats(); st.Bypasses != 3 {
		t.Errorf("bypasses = %d, want 3 (1 single + 2 batch)", st.Bypasses)
	}
}

// TestCacheTinyCapacityClamp: a capacity below the default shard
// count must still bound residency by the capacity (the shard count
// clamps down), not by one-entry-per-shard.
func TestCacheTinyCapacityClamp(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1})
	c := NewCachedOracle(svc, CacheOptions{Capacity: 3})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := c.QueryLR(ctx, geom.Pt(float64(i%10)+0.1, float64(i/10)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries > 3 {
		t.Errorf("resident entries %d exceed configured capacity 3", st.Entries)
	}
}

// TestCacheStatsString is a smoke check that stats render usefully in
// experiment logs.
func TestCacheStatsFormatting(t *testing.T) {
	st := CacheStats{Hits: 10, Misses: 2, Evictions: 1, Entries: 1}
	s := fmt.Sprintf("%+v", st)
	if s == "" {
		t.Fatal("empty stats rendering")
	}
}

// TestCacheInvalidateRegion: invalidation drops exactly the entries
// whose query cells intersect the dirty region and leaves the rest
// replaying — the survivor count pins that mutation-driven
// invalidation is regional, not a full flush.
func TestCacheInvalidateRegion(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{Quantum: 1})
	ctx := context.Background()
	inside := []geom.Point{geom.Pt(1.5, 1.5), geom.Pt(2.5, 2.5)}
	outside := []geom.Point{geom.Pt(8.5, 8.5), geom.Pt(7.5, 0.5), geom.Pt(0.5, 7.5)}
	for _, p := range append(append([]geom.Point{}, inside...), outside...) {
		if _, err := c.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 5 {
		t.Fatalf("entries = %d, want 5", st.Entries)
	}
	dropped := c.Invalidate(geom.NewRect(geom.Pt(1, 1), geom.Pt(3, 3)))
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (only cells intersecting the region)", dropped)
	}
	st := c.Stats()
	if st.Entries != 3 {
		t.Fatalf("survivors = %d, want 3", st.Entries)
	}
	if st.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2", st.Invalidations)
	}
	// Survivors still replay (no inner queries), dropped cells re-fetch.
	before := svc.QueryCount()
	for _, p := range outside {
		if _, err := c.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := svc.QueryCount(); n != before {
		t.Errorf("survivors forwarded %d queries, want 0", n-before)
	}
	for _, p := range inside {
		if _, err := c.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := svc.QueryCount(); n != before+int64(len(inside)) {
		t.Errorf("dropped cells forwarded %d queries, want %d", n-before, len(inside))
	}
}

// TestCacheInvalidateExactKeys: with Quantum 0 the cell is the exact
// query point, so a point region invalidates exactly that point's
// entries (both kinds) and nothing else.
func TestCacheInvalidateExactKeys(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	p, q := geom.Pt(1, 1), geom.Pt(9, 9)
	if _, err := c.QueryLR(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryLNR(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryLR(ctx, q, nil); err != nil {
		t.Fatal(err)
	}
	if dropped := c.Invalidate(geom.Rect{Min: p, Max: p}); dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (LR and LNR entries for p)", dropped)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("survivors = %d, want 1", st.Entries)
	}
}

// TestCacheInvalidateAll flushes everything and counts it.
func TestCacheInvalidateAll(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := c.QueryLR(ctx, geom.Pt(float64(i)+0.5, 5), nil); err != nil {
			t.Fatal(err)
		}
	}
	if dropped := c.InvalidateAll(); dropped != 4 {
		t.Fatalf("dropped = %d, want 4", dropped)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Invalidations != 4 {
		t.Fatalf("stats after flush = %+v", st)
	}
	// An infinite dirty region behaves identically.
	for i := 0; i < 4; i++ {
		if _, err := c.QueryLR(ctx, geom.Pt(float64(i)+0.5, 5), nil); err != nil {
			t.Fatal(err)
		}
	}
	inf := math.Inf(1)
	if dropped := c.Invalidate(geom.Rect{Min: geom.Pt(-inf, -inf), Max: geom.Pt(inf, inf)}); dropped != 4 {
		t.Fatalf("infinite region dropped = %d, want 4", dropped)
	}
}
