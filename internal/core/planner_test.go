package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/shard"
)

// batchSpecs builds n aggregate specs sharing 4 distinct selections:
// kinds rotate per selection, and the last rotation re-states its
// conjunction with the children reordered, which canonicalization
// must fuse with the original. This is the acceptance workload (16
// aggregates, 4 predicates).
func batchSpecs(n int) []AggSpec {
	and := And(AttrCmp("weight", "ge", 2), TagEq("flag", "yes"))
	andReordered := And(TagEq("flag", "yes"), AttrCmp("weight", "ge", 2))
	preds := []PredSpec{
		AttrCmp("weight", "ge", 3),
		TagEq("flag", "yes"),
		Or(TagEq("flag", "no"), AttrCmp("weight", "lt", 8)),
		and,
	}
	specs := make([]AggSpec, 0, n)
	for i := 0; i < n; i++ {
		p := preds[i%len(preds)]
		var s AggSpec
		switch i / len(preds) {
		case 0:
			s = CountSpec().WithWhere(p)
		case 1:
			s = SumSpec("weight").WithWhere(p)
		case 2:
			s = AvgSpec("weight").WithWhere(p)
		default:
			if i%len(preds) == len(preds)-1 {
				p = andReordered // same selection, different spelling
			}
			s = CountSpec().WithWhere(p).WithLabel(fmt.Sprintf("recount-%d", i))
		}
		specs = append(specs, s)
	}
	return specs
}

// TestPlanBatchDedup: 16 specs over 4 distinct selections fuse into
// one LR group with one SUM and one COUNT physical per selection, and
// the reordered conjunction dedups into its canonical twin.
func TestPlanBatchDedup(t *testing.T) {
	specs := batchSpecs(16)
	plan, err := PlanBatch(specs, PlanOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 1 {
		t.Fatalf("got %d groups, want 1 (auto over an LR interface)", len(plan.Groups))
	}
	g := plan.Groups[0]
	if g.Method != MethodLR {
		t.Fatalf("auto picked %s, want lr", g.Method)
	}
	if plan.Preds != 4 {
		t.Fatalf("distinct predicates = %d, want 4", plan.Preds)
	}
	// 4 selections × {COUNT, SUM} = 8 fused physicals for 16 specs.
	if len(g.Aggs) != 8 {
		t.Fatalf("got %d physical aggregates, want 8 (16 specs fused)", len(g.Aggs))
	}
	if len(g.PredHashes) != 4 {
		t.Fatalf("got %d predicate hashes, want 4", len(g.PredHashes))
	}
	if len(g.Specs) != 16 || len(g.entries) != 16 {
		t.Fatalf("group covers %d specs / %d entries, want 16/16", len(g.Specs), len(g.entries))
	}
	if g.Seed != 7 {
		t.Fatalf("group 0 seed = %d, want the batch seed 7", g.Seed)
	}
}

// TestPlanBatchGroupsLNRByLocation: under a forced LNR method,
// location-reading selections split into their own group (they pay
// the §4.3 localization surcharge per sample), with a distinct
// derived seed.
func TestPlanBatchGroupsLNRByLocation(t *testing.T) {
	svc, _ := smallService(t, 40, 2, 5)
	specs := []AggSpec{
		CountSpec(),
		CountSpec().WithWhere(InRect(svc.Bounds())).WithLabel("inside"),
		SumSpec("weight"),
	}
	plan, err := PlanBatch(specs, PlanOptions{Method: MethodLNR, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 2 {
		t.Fatalf("got %d groups, want 2 (location split)", len(plan.Groups))
	}
	for _, g := range plan.Groups {
		if g.Method != MethodLNR {
			t.Fatalf("group method %s, want lnr", g.Method)
		}
		if g.NeedsLocation && g.CostPerSample <= costLNR {
			t.Fatalf("location group cost %v not above base %v", g.CostPerSample, costLNR)
		}
	}
	if plan.Groups[0].Seed != 9 {
		t.Fatalf("group 0 seed = %d, want 9", plan.Groups[0].Seed)
	}
	if plan.Groups[1].Seed == 9 {
		t.Fatalf("group 1 must derive its own seed")
	}
}

// TestPlanBatchRejects: malformed specs and impossible method choices
// fail at plan time.
func TestPlanBatchRejects(t *testing.T) {
	if _, err := PlanBatch(nil, PlanOptions{}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := PlanBatch([]AggSpec{{Kind: "median"}}, PlanOptions{}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := PlanBatch([]AggSpec{CountSpec()}, PlanOptions{Method: "bogus"}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := PlanBatch([]AggSpec{CountSpec()}, PlanOptions{Method: MethodLR, RankOnly: true}); err == nil {
		t.Error("lr over a rank-only oracle accepted")
	}
}

// planBackend builds the batch and reference backends for the
// equivalence suite: a single service or an n-way federated router
// over the same database (pinned bit-identical by the shard suite).
func planBackend(t *testing.T, db *lbs.Database, k, shards int) Oracle {
	t.Helper()
	if shards <= 1 {
		return lbs.NewService(db, lbs.Options{K: k})
	}
	parts := shard.Partition(db, shards)
	members := make([]shard.Shard, len(parts))
	for i, part := range parts {
		members[i] = shard.Shard{
			Querier: lbs.NewService(part, lbs.Options{K: k}),
			Region:  part.Bounds(),
		}
	}
	r, err := shard.NewRouter(members, lbs.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPlanBatchEquivalentToIndependentRuns is the acceptance
// equivalence suite: a batch of aggregates over shared predicates
// produces estimates bit-identical to independent Runs with the same
// per-group seeds and sample counts, while consuming one sample
// stream's worth of queries per group — pinned for LR and LNR over a
// single service and a 4-shard federation.
func TestPlanBatchEquivalentToIndependentRuns(t *testing.T) {
	_, db := smallService(t, 90, 2, 5)
	specs := []AggSpec{
		CountSpec(),
		SumSpec("weight"),
		AvgSpec("weight").WithWhere(TagEq("flag", "yes")),
		CountSpec().WithWhere(And(AttrCmp("weight", "ge", 3), TagEq("flag", "yes"))).WithLabel("a"),
		CountSpec().WithWhere(And(TagEq("flag", "yes"), AttrCmp("weight", "ge", 3))).WithLabel("b"),
	}
	for _, method := range []string{MethodLR, MethodLNR} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", method, shards), func(t *testing.T) {
				ctx := context.Background()
				backend := planBackend(t, db, 2, shards)
				plan, err := PlanBatch(specs, PlanOptions{
					Method: method, Seed: 42, MaxSamples: 25, CheckpointSamples: 8,
				})
				if err != nil {
					t.Fatal(err)
				}
				br, err := plan.Execute(ctx, backend, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(br.Results) != len(specs) {
					t.Fatalf("got %d results, want %d", len(br.Results), len(specs))
				}

				// Each spec, replayed independently with its group's
				// seed and sample count over a fresh backend, must land
				// on the same bits.
				var indepQueries int64
				for _, g := range br.Groups {
					for _, si := range g.Specs {
						ref := planBackend(t, db, 2, shards)
						est := newPlanEstimator(g.Method, ref, g.Seed)
						want := independentRun(t, est, specs[si], g.Samples)
						got := br.Results[si]
						if got.Estimate != want.Estimate && !(math.IsNaN(got.Estimate) && math.IsNaN(want.Estimate)) {
							t.Errorf("spec %d (%s): batch estimate %v != independent %v",
								si, got.Name, got.Estimate, want.Estimate)
						}
						if got.StdErr != want.StdErr && !(math.IsNaN(got.StdErr) && math.IsNaN(want.StdErr)) {
							t.Errorf("spec %d (%s): batch stderr %v != independent %v",
								si, got.Name, got.StdErr, want.StdErr)
						}
						if got.CI95 != want.CI95 && !(math.IsNaN(got.CI95) && math.IsNaN(want.CI95)) {
							t.Errorf("spec %d (%s): batch ci95 %v != independent %v",
								si, got.Name, got.CI95, want.CI95)
						}
						if got.Samples != want.Samples {
							t.Errorf("spec %d (%s): batch samples %d != independent %d",
								si, got.Name, got.Samples, want.Samples)
						}
						indepQueries += want.Queries
					}
				}
				// Shared streams: the batch spends one stream per group,
				// not one per spec.
				if len(specs) > len(br.Groups) && br.Queries >= indepQueries {
					t.Errorf("batch spent %d queries, independent runs %d — no sharing",
						br.Queries, indepQueries)
				}
			})
		}
	}
}

// TestPlanParallelMultiGroup runs a two-group LNR plan (the in-rect
// selection splits off for its localization surcharge) whose groups
// share predicates, at four step workers per group: every group draws
// exactly its sample cap, the group query accounts sum to the batch
// total, and COUNT(*) is unbiased. Run under -race it also pins that
// the fused aggregates and the hand-off are safe for concurrent
// workers.
func TestPlanParallelMultiGroup(t *testing.T) {
	svc, db := smallService(t, 80, 3, 8)
	flag := TagEq("flag", "yes")
	rect := geom.NewRect(geom.Pt(0, 0), geom.Pt(60, 60))
	specs := []AggSpec{
		CountSpec(),
		CountSpec().WithWhere(flag),
		AvgSpec("weight").WithWhere(flag),
		CountSpec().WithWhere(And(flag, InRect(rect))),
		SumSpec("weight").WithWhere(And(InRect(rect), flag)),
	}
	const samples = 120
	plan, err := PlanBatch(specs, PlanOptions{
		Method: MethodLNR, Seed: 13, MaxSamples: samples, CheckpointSamples: 16, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 2 || !plan.Groups[1].NeedsLocation {
		t.Fatalf("got groups %+v, want a plain and a location-reading LNR group", plan.Groups)
	}
	seen := make([]int, len(plan.Groups))
	br, err := plan.Execute(context.Background(), svc, func(pp PlanProgress) {
		if pp.GroupSamples != seen[pp.Group]+1 {
			t.Errorf("group %d: progress jumped from %d to %d samples", pp.Group, seen[pp.Group], pp.GroupSamples)
		}
		seen[pp.Group] = pp.GroupSamples
	})
	if err != nil {
		t.Fatal(err)
	}
	var groupQueries int64
	for gi, g := range br.Groups {
		if g.Samples != samples {
			t.Errorf("group %d drew %d samples, want %d", gi, g.Samples, samples)
		}
		groupQueries += g.Queries
	}
	if br.Queries != groupQueries || br.Queries != svc.QueryCount() {
		t.Errorf("batch queries %d, group sum %d, service count %d: want all equal",
			br.Queries, groupQueries, svc.QueryCount())
	}
	checkZ(t, "parallel COUNT(*)", br.Results[0], float64(db.Len()), 5)
}

// independentRun estimates one spec alone on its own Run of est: COUNT
// and SUM compile to one Aggregate, AVG runs its SUM/COUNT pair and
// finishes through RatioOf (the §1.3 scheme).
func independentRun(t *testing.T, est Estimator, spec AggSpec, samples int) Result {
	t.Helper()
	var aggs []Aggregate
	if spec.Kind == AggAvg {
		for _, half := range []AggSpec{{Kind: AggSum, Attr: spec.Attr, Where: spec.Where}, {Kind: AggCount, Where: spec.Where}} {
			agg, err := half.Compile()
			if err != nil {
				t.Fatal(err)
			}
			aggs = append(aggs, agg)
		}
	} else {
		agg, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		aggs = append(aggs, agg)
	}
	res, err := Run(context.Background(), est, aggs, WithMaxSamples(samples))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != AggAvg {
		return res[0]
	}
	r := RatioOf(res[0], res[1])
	r.Name = spec.Name()
	return r
}

// TestPlannerQuerySavings is the acceptance pin of the batch-cost
// claim: 16 aggregates sharing 4 distinct predicates, run at an equal
// confidence target, consume at most ~1/3 the oracle queries of 16
// independent runs (they consume ~1/16th plus the AVG slowdown; the
// 3× bar leaves slack for variance).
func TestPlannerQuerySavings(t *testing.T) {
	_, db := smallService(t, 150, 3, 6)
	specs := batchSpecs(16)
	const targetCI = 0.30
	ctx := context.Background()

	backend := lbs.NewService(db, lbs.Options{K: 3})
	plan, err := PlanBatch(specs, PlanOptions{Seed: 21, TargetCI: targetCI, MaxSamples: 4000})
	if err != nil {
		t.Fatal(err)
	}
	br, err := plan.Execute(ctx, backend, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The independent leg runs each spec as its own single-spec plan —
	// same stopping rule, same target, its own sample stream — which is
	// exactly what a client without the batch planner would submit 16
	// times.
	var indep int64
	for i, s := range specs {
		ref := lbs.NewService(db, lbs.Options{K: 3})
		sp, err := PlanBatch([]AggSpec{s}, PlanOptions{
			Seed: mixSeed(21, i), TargetCI: targetCI, MaxSamples: 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		one, err := sp.Execute(ctx, ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		indep += one.Queries
	}
	if 3*br.Queries > indep {
		t.Fatalf("batch spent %d queries, 16 independent runs %d: ratio %.2f, want ≤ 1/3",
			br.Queries, indep, float64(br.Queries)/float64(indep))
	}
	t.Logf("batch %d queries vs independent %d (ratio %.3f, %d samples)",
		br.Queries, indep, float64(br.Queries)/float64(indep), br.Samples)
}

// TestExecuteReplansAcrossGroups: a two-group plan records checkpoint
// re-allocations, and both groups make progress under one shared
// budget.
func TestExecuteReplansAcrossGroups(t *testing.T) {
	svc, _ := smallService(t, 40, 2, 5)
	specs := []AggSpec{
		CountSpec(),
		CountSpec().WithWhere(InRect(svc.Bounds())).WithLabel("inside"),
	}
	plan, err := PlanBatch(specs, PlanOptions{
		Method: MethodLNR, Seed: 3, MaxQueries: 4000, CheckpointSamples: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var events int
	br, err := plan.Execute(context.Background(), svc, func(pp PlanProgress) {
		events++
		if len(pp.Points) == 0 || len(pp.Partial) != len(pp.Specs) {
			t.Errorf("malformed progress: %+v", pp)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Replans) == 0 {
		t.Error("no replan events recorded for a two-group plan")
	}
	if events != br.Samples {
		t.Errorf("progress fired %d times for %d samples", events, br.Samples)
	}
	for gi, g := range br.Groups {
		if g.Samples == 0 {
			t.Errorf("group %d starved: no samples", gi)
		}
	}
	// The cap is checked between samples, so the overshoot is bounded
	// by one in-flight sample per group (LNR samples cost dozens of
	// queries each).
	if br.Queries > 4000+300 {
		t.Errorf("budget overrun: %d queries vs cap 4000 (+1 sample/group slack)", br.Queries)
	}
}

// TestExecuteCancelYieldsPartials: cancellation mid-run is graceful —
// partial results with completed samples, no error.
func TestExecuteCancelYieldsPartials(t *testing.T) {
	svc, _ := smallService(t, 40, 2, 5)
	plan, err := PlanBatch([]AggSpec{CountSpec()}, PlanOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	br, err := plan.Execute(ctx, svc, func(PlanProgress) {
		if n++; n >= 5 {
			cancel()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Samples == 0 || br.Results[0].Samples == 0 {
		t.Fatalf("canceled run returned no partials: %+v", br)
	}
}
