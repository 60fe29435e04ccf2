package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/sampling"
)

// nonBatchOracle hides the batch methods of a service so tests can
// exercise the driver's sequential fallback path.
type nonBatchOracle struct {
	svc *lbs.Service
}

func (o nonBatchOracle) QueryLR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LRRecord, error) {
	return o.svc.QueryLR(ctx, q, f)
}
func (o nonBatchOracle) QueryLNR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LNRRecord, error) {
	return o.svc.QueryLNR(ctx, q, f)
}
func (o nonBatchOracle) Bounds() geom.Rect { return o.svc.Bounds() }
func (o nonBatchOracle) K() int            { return o.svc.K() }
func (o nonBatchOracle) QueryCount() int64 { return o.svc.QueryCount() }

// TestWithBatchFallbackEquivalence: for an estimator without a native
// batch path (LRAggregator), WithBatch(m) falls back to sequential
// Step calls and must produce bit-identical results to the unbatched
// run with the same seed.
func TestWithBatchFallbackEquivalence(t *testing.T) {
	db := smallService2(80, 11)
	run := func(batch int) []Result {
		svc := lbs.NewService(db, lbs.Options{K: 2})
		agg := NewLRAggregator(svc, DefaultLROptions(5))
		opts := []RunOption{WithMaxSamples(24)}
		if batch > 1 {
			opts = append(opts, WithBatch(batch))
		}
		res, err := agg.Run(context.Background(), []Aggregate{Count()}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, batched := run(1), run(4)
	if plain[0].Samples != batched[0].Samples {
		t.Fatalf("samples: %d vs %d", plain[0].Samples, batched[0].Samples)
	}
	if plain[0].Estimate != batched[0].Estimate || plain[0].StdErr != batched[0].StdErr {
		t.Errorf("batched fallback diverged: %+v vs %+v", plain[0], batched[0])
	}
	if plain[0].Queries != batched[0].Queries {
		t.Errorf("query cost changed under batching: %d vs %d", plain[0].Queries, batched[0].Queries)
	}
}

// TestNNOStepBatchDistribution: NNO's native batch path draws valid
// samples — the batched run must land in the same loose accuracy band
// as the sequential baseline and must not change the per-sample query
// cost structure.
func TestNNOStepBatchDistribution(t *testing.T) {
	db := smallService2(60, 301)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	nno := NewNNOBaseline(svc, NNOOptions{Seed: 1})
	res, err := nno.Run(context.Background(), []Aggregate{Count()}, WithMaxSamples(150), WithBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples != 150 {
		t.Errorf("samples = %d, want 150", res[0].Samples)
	}
	truth := float64(db.Len())
	if rel := res[0].RelErr(truth); rel > 0.6 {
		t.Errorf("batched NNO estimate %v vs truth %v (rel %v)", res[0].Estimate, truth, rel)
	}
}

// TestNNOBatchRespectsBudget: a batched parallel run against a
// budget-capped service stops gracefully with partial results and the
// counter never exceeds the budget.
func TestNNOBatchRespectsBudget(t *testing.T) {
	db := smallService2(60, 17)
	const budget = 400
	svc := lbs.NewService(db, lbs.Options{K: 1, Budget: budget})
	nno := NewNNOBaseline(svc, NNOOptions{Seed: 3})
	res, err := nno.Run(context.Background(), []Aggregate{Count()},
		WithBatch(8), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples == 0 {
		t.Fatal("no samples completed")
	}
	if n := svc.QueryCount(); n > budget {
		t.Errorf("QueryCount %d exceeds budget %d", n, budget)
	}
}

// TestStepBatchFallbackOracle: WithBatch over an Oracle without batch
// support must still work (per-query fallback inside the probe loop).
func TestStepBatchFallbackOracle(t *testing.T) {
	db := smallService2(40, 23)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	nno := NewNNOBaseline(nonBatchOracle{svc}, NNOOptions{Seed: 9})
	res, err := nno.Run(context.Background(), []Aggregate{Count()}, WithMaxSamples(40), WithBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples != 40 {
		t.Errorf("samples = %d, want 40", res[0].Samples)
	}
}

// snapSampler snaps uniform draws to a coarse grid, making repeated
// sample points common — the workload where client-side caching pays.
type snapSampler struct {
	*sampling.Uniform
	pitch float64
}

func (s snapSampler) Sample(rng *rand.Rand) geom.Point {
	p := s.Uniform.Sample(rng)
	return geom.Pt(
		(math.Floor(p.X/s.pitch)+0.5)*s.pitch,
		(math.Floor(p.Y/s.pitch)+0.5)*s.pitch,
	)
}

// TestCachedRunSameEstimateFewerQueries is the acceptance check for
// the caching layer: on a workload with repeated sample points, an
// estimator over a CachedOracle reaches the *same* estimate as the
// uncached run (the wrapper is transparent) while consuming strictly
// fewer service queries.
func TestCachedRunSameEstimateFewerQueries(t *testing.T) {
	db := smallService2(60, 5)
	const samples = 80
	run := func(cached bool) ([]Result, int64) {
		svc := lbs.NewService(db, lbs.Options{K: 1})
		var oracle Oracle = svc
		if cached {
			oracle = lbs.NewCachedOracle(svc, lbs.CacheOptions{Capacity: 1 << 14})
		}
		smp := snapSampler{Uniform: sampling.NewUniform(db.Bounds()), pitch: 25}
		nno := NewNNOBaseline(oracle, NNOOptions{Seed: 21, Sampler: smp, ProbesPerCell: 10})
		res, err := nno.Run(context.Background(), []Aggregate{Count()}, WithMaxSamples(samples))
		if err != nil {
			t.Fatal(err)
		}
		return res, svc.QueryCount()
	}
	plain, plainQ := run(false)
	cached, cachedQ := run(true)
	if plain[0].Samples != samples || cached[0].Samples != samples {
		t.Fatalf("samples: plain %d cached %d, want %d", plain[0].Samples, cached[0].Samples, samples)
	}
	if plain[0].Estimate != cached[0].Estimate {
		t.Errorf("cached estimate %v != uncached %v (wrapper must be transparent)",
			cached[0].Estimate, plain[0].Estimate)
	}
	if cachedQ >= plainQ {
		t.Errorf("cached run spent %d queries, want strictly fewer than uncached %d", cachedQ, plainQ)
	}
	t.Logf("uncached %d queries, cached %d (%.0f%% saved)", plainQ, cachedQ,
		100*(1-float64(cachedQ)/float64(plainQ)))
}

// TestCachedBatchedParallelRun combines every layer: cache wrapper,
// native NNO batching, parallel forks — under -race this exercises
// the concurrent shard locking end to end.
func TestCachedBatchedParallelRun(t *testing.T) {
	db := smallService2(60, 5)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	oracle := lbs.NewCachedOracle(svc, lbs.CacheOptions{Capacity: 4096, Shards: 8})
	smp := snapSampler{Uniform: sampling.NewUniform(db.Bounds()), pitch: 20}
	nno := NewNNOBaseline(oracle, NNOOptions{Seed: 2, Sampler: smp, ProbesPerCell: 8})
	res, err := nno.Run(context.Background(), []Aggregate{Count()},
		WithMaxSamples(120), WithBatch(8), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples != 120 {
		t.Errorf("samples = %d, want 120", res[0].Samples)
	}
	st := oracle.Stats()
	if st.Hits == 0 {
		t.Errorf("expected cache hits on a snapped workload, got %+v", st)
	}
	if st.Misses != svc.QueryCount() {
		t.Errorf("misses %d != inner queries %d", st.Misses, svc.QueryCount())
	}
}

// callCounter counts an estimator's oracle calls, one per point query.
// It has no batch path of its own, whatever the wrapped oracle has.
type callCounter struct {
	Oracle
	calls int
}

func (o *callCounter) QueryLR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LRRecord, error) {
	o.calls++
	return o.Oracle.QueryLR(ctx, q, f)
}

func (o *callCounter) QueryLNR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LNRRecord, error) {
	o.calls++
	return o.Oracle.QueryLNR(ctx, q, f)
}

// batchCallCounter is a callCounter that keeps the batch path of bo,
// counting each batch as one call. cut counts batches the budget
// answered only in part.
type batchCallCounter struct {
	*callCounter
	bo  BatchOracle
	cut *int
}

func (o batchCallCounter) QueryLRBatch(ctx context.Context, pts []geom.Point, f lbs.Filter) ([][]lbs.LRRecord, error) {
	o.calls++
	return o.bo.QueryLRBatch(ctx, pts, f)
}

func (o batchCallCounter) QueryLNRBatch(ctx context.Context, pts []geom.Point, f lbs.Filter) ([][]lbs.LNRRecord, error) {
	o.calls++
	out, err := o.bo.QueryLNRBatch(ctx, pts, f)
	if errors.Is(err, lbs.ErrBudgetExhausted) && out[0] != nil {
		*o.cut++
	}
	return out, err
}

// TestLNRBatchedMatchesSequential: LNR over an oracle with a batch path
// sends its rings, vertex rounds and axis exits as batches, yet spends
// exactly the queries of probing one point at a time and reaches the
// identical run — also when the budget dies inside a batch — in fewer
// oracle calls.
func TestLNRBatchedMatchesSequential(t *testing.T) {
	db := smallService2(60, 331)
	rect := geom.NewRect(geom.Pt(0, 0), geom.Pt(50, 50))
	cases := []struct {
		name    string
		h       int
		aggs    []Aggregate
		samples int
		budget  int64
	}{
		{"H1", 1, []Aggregate{Count(), CountInRect(rect)}, 12, 0},
		{"H2", 2, []Aggregate{Count()}, 8, 0},
		{"H1-budget", 1, []Aggregate{Count(), CountInRect(rect)}, 0, 2011},
		{"H2-budget", 2, []Aggregate{Count()}, 0, 5011},
	}
	for _, tc := range cases {
		cutBatches := 0
		run := func(batched bool) ([]Result, LNRStats, int) {
			svc := lbs.NewService(db, lbs.Options{K: 4, Budget: tc.budget})
			calls := &callCounter{Oracle: nonBatchOracle{svc}}
			var o Oracle = calls
			if batched {
				calls.Oracle = svc
				o = batchCallCounter{callCounter: calls, bo: svc, cut: &cutBatches}
			}
			agg := NewLNRAggregator(o, LNROptions{H: tc.h, Seed: 17})
			opts := []RunOption{WithParallelism(1)}
			if tc.samples > 0 {
				opts = append(opts, WithMaxSamples(tc.samples))
			}
			res, err := agg.Run(context.Background(), tc.aggs, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if tc.budget > 0 && res[0].Queries != tc.budget {
				t.Fatalf("%s: run spent %d queries, want the whole budget %d", tc.name, res[0].Queries, tc.budget)
			}
			return res, agg.Stats(), calls.calls
		}
		seq, seqStats, seqCalls := run(false)
		bat, batStats, batCalls := run(true)
		for j := range seq {
			s, b := seq[j], bat[j]
			if s.Estimate != b.Estimate || s.CI95 != b.CI95 || s.Samples != b.Samples || s.Queries != b.Queries {
				t.Errorf("%s %s: batched %v ± %v (%d samples, %d queries), sequential %v ± %v (%d samples, %d queries)",
					tc.name, s.Name, b.Estimate, b.CI95, b.Samples, b.Queries, s.Estimate, s.CI95, s.Samples, s.Queries)
			}
		}
		if seqStats != batStats {
			t.Errorf("%s: stats batched %+v, sequential %+v", tc.name, batStats, seqStats)
		}
		refused := 0 // the one call a dead budget refuses
		if tc.budget > 0 {
			refused = 1
		}
		if seqCalls != int(seq[0].Queries)+refused {
			t.Errorf("%s: sequential run made %d calls for %d queries", tc.name, seqCalls, seq[0].Queries)
		}
		// H = 1, the paper's default, saves at least a quarter of the
		// calls; H = 2 spends more of its queries on bisections, which
		// stay sequential.
		if tc.h == 1 && 4*batCalls > 3*seqCalls || batCalls >= seqCalls {
			t.Errorf("%s: batched run made %d oracle calls, sequential %d", tc.name, batCalls, seqCalls)
		}
		if tc.budget > 0 && cutBatches == 0 {
			t.Errorf("%s: the budget did not die inside a batch", tc.name)
		}
		t.Logf("%s: %d queries in %d sequential calls, %d batched", tc.name, seq[0].Queries, seqCalls, batCalls)
	}
}
