package lbsagg_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	lbsagg "repro"
)

// TestFacadeQuickstart exercises the public API exactly as the README
// quick start does.
func TestFacadeQuickstart(t *testing.T) {
	bounds := lbsagg.NewRect(lbsagg.Pt(0, 0), lbsagg.Pt(100, 100))
	tuples := make([]lbsagg.Tuple, 50)
	for i := range tuples {
		tuples[i] = lbsagg.Tuple{
			ID:    int64(i + 1),
			Loc:   lbsagg.Pt(float64(3+(i*17)%94), float64(5+(i*31)%89)),
			Attrs: map[string]float64{"v": float64(i % 7)},
		}
	}
	db := lbsagg.NewDatabase(bounds, tuples)
	svc := lbsagg.NewService(db, lbsagg.ServiceOptions{K: 5})
	agg := lbsagg.NewLRAggregator(svc, lbsagg.DefaultLROptions(42))
	res, err := agg.Run(context.Background(), []lbsagg.Aggregate{lbsagg.Count(), lbsagg.SumAttr("v")}, lbsagg.WithMaxSamples(300))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].Estimate-50)/50 > 0.2 && math.Abs(res[0].Estimate-50) > 5*res[0].StdErr {
		t.Errorf("facade COUNT: %+v", res[0])
	}
	avg := lbsagg.RatioOf(res[1], res[0])
	if avg.Estimate <= 0 {
		t.Errorf("facade AVG: %+v", avg)
	}
}

// TestFacadeLNRAndScenarios covers the LNR path and the scenario
// constructors through the facade.
func TestFacadeLNRAndScenarios(t *testing.T) {
	sc := lbsagg.WeiboChina(150, 7)
	svc := lbsagg.NewService(sc.DB, lbsagg.ServiceOptions{K: 5})
	agg := lbsagg.NewLNRAggregator(svc, lbsagg.LNROptions{Seed: 3})
	res, err := agg.Run(context.Background(), []lbsagg.Aggregate{lbsagg.CountTag("gender", "m")}, lbsagg.WithMaxSamples(40))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Queries == 0 || res[0].Samples != 40 {
		t.Errorf("LNR run accounting: %+v", res[0])
	}
}

// TestFacadeSamplers covers the sampler constructors.
func TestFacadeSamplers(t *testing.T) {
	r := lbsagg.NewRect(lbsagg.Pt(0, 0), lbsagg.Pt(10, 10))
	u := lbsagg.NewUniformSampler(r)
	if u.Density(lbsagg.Pt(5, 5)) != 0.01 {
		t.Errorf("uniform density")
	}
	g := lbsagg.NewGridSampler(r, 2, 1, []float64{1, 3})
	if g.Density(lbsagg.Pt(7, 5)) <= g.Density(lbsagg.Pt(2, 5)) {
		t.Errorf("grid weights not respected")
	}
	pts := []lbsagg.Point{lbsagg.Pt(1, 1), lbsagg.Pt(2, 2)}
	if lbsagg.GridFromPoints(r, 4, 4, pts, 1) == nil {
		t.Errorf("GridFromPoints")
	}
}

// TestFacadeFilters covers pass-through filters via the facade.
func TestFacadeFilters(t *testing.T) {
	sc := lbsagg.StarbucksUS(30, 100, 5)
	svc := lbsagg.NewService(sc.DB, lbsagg.ServiceOptions{K: 3})
	res, err := svc.QueryLR(context.Background(), lbsagg.Pt(2000, 1200), lbsagg.NameFilter("Starbucks"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res {
		if rec.Name != "Starbucks" {
			t.Errorf("filter leak: %+v", rec)
		}
	}
}

// TestFacadeFederation covers the scale-out surface: partitioning,
// the one-call sharded service, and estimator runs over a router.
func TestFacadeFederation(t *testing.T) {
	sc := lbsagg.USASchools(200, 3)
	parts := lbsagg.PartitionDatabase(sc.DB, 4)
	if len(parts) != 4 {
		t.Fatalf("partitions: %d", len(parts))
	}
	router, err := lbsagg.NewShardedService(sc.DB, lbsagg.ServiceOptions{K: 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	single := lbsagg.NewService(sc.DB, lbsagg.ServiceOptions{K: 5})
	ctx := context.Background()
	q := sc.DB.Bounds().Center()
	want, _ := single.QueryLR(ctx, q, nil)
	got, err := router.QueryLR(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) || want[0].ID != got[0].ID {
		t.Fatalf("federated answer diverges: %+v vs %+v", want, got)
	}
	// An estimator runs over the router unchanged.
	agg := lbsagg.NewLRAggregator(router, lbsagg.DefaultLROptions(42))
	count := lbsagg.CountSpec()
	cnt, err := count.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := agg.Run(ctx, []lbsagg.Aggregate{cnt}, lbsagg.WithMaxSamples(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Samples != 5 {
		t.Fatalf("federated estimator run: %+v", res)
	}
	if st := router.Stats(); st.Logical == 0 || len(st.Shards) != 4 {
		t.Fatalf("router stats: %+v", st)
	}
}

// TestFacadeFaultTolerance exercises the failure-handling exports: a
// resilient federation with per-member fault injectors survives a
// member kill, answers degraded with a partial annotation, and a
// tolerant wrapper absorbs the annotation for estimation layers.
func TestFacadeFaultTolerance(t *testing.T) {
	sc := lbsagg.USASchools(150, 4)
	inj := make([]*lbsagg.FaultInjector, 2)
	router, err := lbsagg.NewShardedServiceWrapped(sc.DB, lbsagg.ServiceOptions{K: 10}, 2,
		lbsagg.Resilience{BreakerThreshold: 1, BreakerCooldown: time.Hour, Seed: 1},
		func(i int, q lbsagg.Querier) lbsagg.Querier {
			inj[i] = lbsagg.NewFaultInjector(q, lbsagg.FaultSpec{Seed: int64(i)})
			return inj[i]
		})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dead := router.Stats().Shards[1].Region.Center()
	inj[1].Kill()
	if _, err := router.QueryLR(ctx, dead, nil); !errors.Is(err, lbsagg.ErrOwnerDown) {
		t.Fatalf("owner down: %v", err)
	}
	if st := router.Stats(); st.Shards[1].State != lbsagg.BreakerOpen {
		t.Fatalf("breaker state: %s", st.Shards[1].State)
	}
	recs, err := router.QueryLR(ctx, dead, nil)
	pe, ok := lbsagg.IsPartialAnswer(err)
	if !ok || len(recs) == 0 || pe.Degraded != 1 {
		t.Fatalf("degraded answer: %d recs, %v", len(recs), err)
	}
	tol := lbsagg.NewTolerantQuerier(router)
	if _, err := tol.QueryLR(ctx, dead, nil); err != nil {
		t.Fatalf("tolerant wrapper surfaced: %v", err)
	}
	if tol.DegradedCount() == 0 {
		t.Fatal("tolerant wrapper did not count the degraded answer")
	}
	if spec, err := lbsagg.ParseFaultSpec("seed=3,transient=0.1"); err != nil || spec.TransientRate != 0.1 {
		t.Fatalf("ParseFaultSpec: %+v, %v", spec, err)
	}
	if lbsagg.DefaultResilience().BreakerThreshold == 0 {
		t.Fatal("default resilience leaves the breaker off")
	}
}
