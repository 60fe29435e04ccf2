package core

import (
	"context"
	"testing"

	"repro/internal/lbs"
)

// lrBenchJob is the number of timed LR steps one aggregator takes in
// the LR benchmarks: an lr-job job's 200 samples.
const lrBenchJob = 200

// benchLRSteps times b.N LR estimator steps over svc in jobs of
// lrBenchJob steps. Every job starts a fresh aggregator (seeded by the
// job's index) and warms its history with 50 samples with the timer
// stopped, so the history, and with it the per-step cost, does not
// grow with b.N. It reports the timed steps' queries per sample.
func benchLRSteps(b *testing.B, svc *lbs.Service) {
	ctx := context.Background()
	aggs := []Aggregate{Count()}
	var agg *LRAggregator
	var queries int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%lrBenchJob == 0 {
			b.StopTimer()
			agg = NewLRAggregator(svc, DefaultLROptions(int64(1+i/lrBenchJob)))
			if _, err := agg.Run(ctx, aggs, WithMaxSamples(50)); err != nil {
				b.Fatal(err)
			}
			queries -= svc.QueryCount()
			b.StartTimer()
		}
		if _, err := agg.Step(ctx, aggs); err != nil {
			b.Fatal(err)
		}
		if i%lrBenchJob == lrBenchJob-1 || i == b.N-1 {
			queries += svc.QueryCount()
		}
	}
	b.ReportMetric(float64(queries)/float64(b.N), "queries/sample")
}

// BenchmarkLRCellComputation measures the exact-cell weight
// computations of one LR sample (queries are in-process, so this is
// the algorithmic overhead, not the simulated network).
func BenchmarkLRCellComputation(b *testing.B) {
	db := smallService2(500, 31)
	benchLRSteps(b, lbs.NewService(db, lbs.Options{K: 5}))
}

// BenchmarkLRSample measures one end-to-end LR estimator sample
// (query + cell computations for every exploited tuple) against the
// in-process oracle — the headline number of the geometry-engine
// overhaul, tracked in BENCH_geom.json.
func BenchmarkLRSample(b *testing.B) {
	db := smallService2(2000, 29)
	b.ReportAllocs()
	benchLRSteps(b, lbs.NewService(db, lbs.Options{K: 5}))
}

// BenchmarkLNRCellInference measures one rank-only sample (cell
// inference via binary search).
func BenchmarkLNRCellInference(b *testing.B) {
	db := smallService2(500, 37)
	svc := lbs.NewService(db, lbs.Options{K: 5})
	agg := NewLNRAggregator(svc, LNROptions{Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Step(context.Background(), []Aggregate{Count()}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(svc.QueryCount())/float64(agg.Stats().Samples), "queries/sample")
}

// BenchmarkNNOSample measures one baseline sample.
func BenchmarkNNOSample(b *testing.B) {
	db := smallService2(500, 41)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	nno := NewNNOBaseline(svc, NNOOptions{Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nno.Step(context.Background(), []Aggregate{Count()}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(svc.QueryCount())/float64(b.N), "queries/sample")
}

// BenchmarkLocalize measures one §4.3 position inference.
func BenchmarkLocalize(b *testing.B) {
	db := smallService2(300, 43)
	svc := lbs.NewService(db, lbs.Options{K: 8})
	agg := NewLNRAggregator(svc, LNROptions{Seed: 4})
	b.ResetTimer()
	ok := 0
	for i := 0; i < b.N; i++ {
		idx := i % db.Len()
		if _, err := agg.Localize(context.Background(), db.Tuple(idx).ID, db.Tuple(idx).Loc); err == nil {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "success-rate")
}
