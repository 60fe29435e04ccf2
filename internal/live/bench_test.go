package live_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/churn"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// The live benchmark suite measures what mutability costs the read
// path: query throughput over a live database at 0%, 1% and 10% churn
// (mutations interleaved per query) against the immutable Service
// baseline on the same data. At 0% churn the overlay is clean and the
// fast path should track the baseline within noise; under churn the
// merge path and snapshot rebuilds price in.

const benchN = 20000

func benchDB(b *testing.B) *lbs.Database {
	b.Helper()
	return workload.USASchools(benchN, 7).DB
}

func benchPoints(db *lbs.Database, n int) []geom.Point {
	rng := rand.New(rand.NewSource(3))
	bounds := db.Bounds()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			bounds.Min.X+rng.Float64()*bounds.Width(),
			bounds.Min.Y+rng.Float64()*bounds.Height())
	}
	return pts
}

// BenchmarkImmutableQueryLR is the reference: a plain Service over
// the same database and options as the live benchmarks.
func BenchmarkImmutableQueryLR(b *testing.B) {
	db := benchDB(b)
	svc := lbs.NewService(db, lbs.Options{K: 5})
	pts := benchPoints(db, 4096)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.QueryLR(ctx, pts[i%len(pts)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchChurn runs the live query benchmark with permil mutations per
// thousand queries, interleaved deterministically.
func benchChurn(b *testing.B, permil int) {
	db := benchDB(b)
	d, err := live.New(db, lbs.Options{K: 5}, live.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pts := benchPoints(db, 4096)
	ops := churn.Ops(db, churn.Config{Seed: 11}, 200000)
	ctx := context.Background()
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if permil > 0 && i%1000 < permil && next < len(ops) {
			if r := d.Apply(ctx, ops[next:next+1])[0]; r.Err != nil {
				b.Fatal(r.Err)
			}
			next++
		}
		if _, err := d.QueryLR(ctx, pts[i%len(pts)], nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if permil > 0 && next == 0 {
		b.Fatal("no mutations interleaved")
	}
}

// BenchmarkLiveQueryLRChurn0: clean overlay — the fast path the <10%
// read-regression acceptance bound is measured against.
func BenchmarkLiveQueryLRChurn0(b *testing.B) { benchChurn(b, 0) }

// BenchmarkLiveQueryLRChurn1: 1% of queries interleave one mutation.
func BenchmarkLiveQueryLRChurn1(b *testing.B) { benchChurn(b, 10) }

// BenchmarkLiveQueryLRChurn10: 10% of queries interleave one mutation.
func BenchmarkLiveQueryLRChurn10(b *testing.B) { benchChurn(b, 100) }

// BenchmarkLiveQueryLRGeodesic measures the dirty-overlay read path
// in the shape of a geodesic deployment: Haversine POIs over the US,
// K = 10, a 150 km coverage radius, and a fixed overlay of about 700
// entries (inserts + tombstones — the mean overlay of a live database
// compacting at the default threshold under steady churn). Reads hit
// points jittered around tuple locations. Nothing is written in the
// timed loop, so the per-op cost does not depend on b.N.
func BenchmarkLiveQueryLRGeodesic(b *testing.B) {
	sc := workload.GeoUS(benchN, 7, workload.DensityGauss)
	opts := lbs.Options{K: 10, Metric: sc.Metric, MaxRadius: 150}
	d, err := live.New(sc.DB, opts, live.Options{CompactThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	ops := churn.Ops(sc.DB, churn.Config{Seed: 11}, 4000)
	for len(ops) > 0 {
		if st := d.Stats(); st.DeltaLen+st.Tombstones >= 700 {
			break
		}
		for _, r := range d.Apply(ctx, ops[:16]) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		ops = ops[16:]
	}
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 4096)
	for i := range pts {
		p := sc.DB.EffectiveLoc(rng.Intn(sc.DB.Len()))
		pts[i] = geom.Pt(p.X+rng.NormFloat64()*0.05, p.Y+rng.NormFloat64()*0.05)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.QueryLR(ctx, pts[i%len(pts)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveApply measures raw mutation throughput: one
// insert+delete pair per iteration (the overlay returns to clean each
// time, so the cost measured is op validation plus two snapshot
// swaps, repeatable for any b.N).
func BenchmarkLiveApply(b *testing.B) {
	db := benchDB(b)
	d, err := live.New(db, lbs.Options{K: 5}, live.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pts := benchPoints(db, 4096)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(10_000_000 + i)
		for _, r := range d.Apply(ctx, []live.Op{
			{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: id, Loc: pts[i%len(pts)]}},
			{Kind: live.OpDelete, ID: id},
		}) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}
