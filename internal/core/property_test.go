package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// TestAccumulatorMatchesNaive property-checks Welford's algorithm
// against the two-pass formulas.
func TestAccumulatorMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		var acc Accumulator
		var sum float64
		for _, x := range xs {
			acc.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		wantVar := m2 / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(wantVar))
		return math.Abs(acc.Mean()-mean) < 1e-9*math.Max(1, math.Abs(mean)) &&
			math.Abs(acc.Variance()-wantVar) < 1e-6*scale
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			n := 2 + r.Intn(50)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.NormFloat64() * 100
			}
			args[0] = reflect.ValueOf(xs)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRatioOfProperties property-checks the AVG combination.
func TestRatioOfProperties(t *testing.T) {
	f := func(num, den, seN, seD float64) bool {
		n := Result{Estimate: num, StdErr: math.Abs(seN)}
		d := Result{Estimate: den, StdErr: math.Abs(seD)}
		r := RatioOf(n, d)
		if den == 0 {
			return math.IsNaN(r.Estimate)
		}
		if math.Abs(r.Estimate-num/den) > 1e-12*math.Max(1, math.Abs(num/den)) {
			return false
		}
		return r.StdErr >= 0 || math.IsNaN(r.StdErr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCountBiasBoundProperties property-checks the Theorem-2 bound:
// non-negative, monotone in ε, vanishing at ε = 0.
func TestCountBiasBoundProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		ds := make([]float64, n)
		for i := range ds {
			ds[i] = rng.Float64()*10 + 0.01
		}
		e1 := rng.Float64() * 0.005
		e2 := e1 + rng.Float64()*0.004
		b1, _ := CountBiasBound(ds, e1)
		b2, _ := CountBiasBound(ds, e2)
		if b1 < 0 || b2 < 0 {
			t.Fatalf("negative bound: %v %v", b1, b2)
		}
		if b2 < b1-1e-12 {
			t.Fatalf("bound not monotone: ε %v→%v gave %v→%v", e1, e2, b1, b2)
		}
		if b0, _ := CountBiasBound(ds, 0); b0 != 0 {
			t.Fatalf("bound at ε=0: %v", b0)
		}
	}
}

// TestHistoryProperties property-checks the observation store.
func TestHistoryProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := NewHistory(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)))
	locs := map[int64]geom.Point{}
	for i := 0; i < 500; i++ {
		id := int64(rng.Intn(100))
		p := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		fresh := h.Observe(id, p)
		_, existed := locs[id]
		if fresh == existed {
			t.Fatalf("Observe freshness wrong for %d", id)
		}
		if !existed {
			locs[id] = p
		}
		// First observation wins (static database).
		if got, _ := h.Loc(id); got != locs[id] {
			t.Fatalf("history overwrote location of %d", id)
		}
	}
	if h.Len() != len(locs) {
		t.Fatalf("len %d vs %d", h.Len(), len(locs))
	}
	// CountCloser agrees with direct computation.
	target := geom.Pt(5, 5)
	for trial := 0; trial < 50; trial++ {
		p := geom.Pt(rng.Float64()*10, rng.Float64()*10)
		want := 0
		for id, l := range locs {
			if id == 7 {
				continue
			}
			if p.Dist2(l) < p.Dist2(target) {
				want++
			}
		}
		if got := h.CountCloser(p, target, 7, len(locs)); got != want {
			t.Fatalf("CountCloser %d vs %d", got, want)
		}
	}
}

// TestLREstimatorInvariantEmptyDBRegion checks the estimator over a
// region devoid of tuples: every sample returns the nearest outside
// tuples whose cells barely intersect — estimates must stay finite and
// the zero-contribution rule must apply under a coverage cap.
func TestLREstimatorInvariantEmptyDBRegion(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	// All tuples in the left half.
	tuples := make([]lbs.Tuple, 30)
	rng := rand.New(rand.NewSource(2))
	for i := range tuples {
		tuples[i] = lbs.Tuple{ID: int64(i + 1), Loc: geom.Pt(rng.Float64()*40, rng.Float64()*100)}
	}
	db := lbs.NewDatabase(bounds, tuples)
	svc := lbs.NewService(db, lbs.Options{K: 2, MaxRadius: 10})
	opts := DefaultLROptions(3)
	// Estimation region = right half: almost every query is empty.
	opts.Region = geom.NewRect(geom.Pt(50, 0), geom.Pt(100, 100))
	agg := NewLRAggregator(svc, opts)
	res, err := agg.Run(context.Background(), []Aggregate{Count()}, WithMaxSamples(200))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res[0].Estimate) || math.IsInf(res[0].Estimate, 0) {
		t.Fatalf("estimate not finite: %v", res[0].Estimate)
	}
	if res[0].Estimate > 5 {
		t.Errorf("near-empty region estimated %v tuples", res[0].Estimate)
	}
	if agg.Stats().EmptyAnswers == 0 {
		t.Errorf("expected empty answers")
	}
}

// TestLRSeedDeterminism: identical seeds must reproduce identical runs.
func TestLRSeedDeterminism(t *testing.T) {
	db := smallService2(60, 881)
	run := func() []float64 {
		svc := lbs.NewService(db, lbs.Options{K: 3})
		agg := NewLRAggregator(svc, DefaultLROptions(12345))
		res, err := agg.Run(context.Background(), []Aggregate{Count()}, WithMaxSamples(40))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(res[0].Trace))
		for i, tp := range res[0].Trace {
			out[i] = tp.Estimate
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at sample %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestLNRSeedDeterminism mirrors the determinism check for LNR.
func TestLNRSeedDeterminism(t *testing.T) {
	db := smallService2(40, 883)
	run := func() float64 {
		svc := lbs.NewService(db, lbs.Options{K: 3})
		agg := NewLNRAggregator(svc, LNROptions{Seed: 777})
		res, err := agg.Run(context.Background(), []Aggregate{Count()}, WithMaxSamples(10))
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Estimate
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}
