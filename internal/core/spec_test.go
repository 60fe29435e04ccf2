package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// randPred generates a random valid predicate tree of bounded depth.
func randPred(rng *rand.Rand, depth int) PredSpec {
	attrs := []string{"rating", "enrollment", "prominence"}
	tags := []string{"gender", "open_sunday"}
	vals := []string{"f", "m", "yes", "no"}
	cmps := []string{CmpLT, CmpLE, CmpGT, CmpGE, CmpEQ, CmpNE}
	leaf := depth <= 0 || rng.Intn(2) == 0
	if leaf {
		switch rng.Intn(3) {
		case 0:
			return AttrCmp(attrs[rng.Intn(len(attrs))], cmps[rng.Intn(len(cmps))],
				float64(rng.Intn(9))/2)
		case 1:
			return TagEq(tags[rng.Intn(len(tags))], vals[rng.Intn(len(vals))])
		default:
			x, y := rng.Float64()*4000, rng.Float64()*2500
			return InRect(geom.NewRect(geom.Pt(x, y),
				geom.Pt(x+rng.Float64()*2000, y+rng.Float64()*1500)))
		}
	}
	switch rng.Intn(3) {
	case 0:
		n := 1 + rng.Intn(3)
		args := make([]PredSpec, n)
		for i := range args {
			args[i] = randPred(rng, depth-1)
		}
		return And(args...)
	case 1:
		n := 1 + rng.Intn(3)
		args := make([]PredSpec, n)
		for i := range args {
			args[i] = randPred(rng, depth-1)
		}
		return Or(args...)
	default:
		return Not(randPred(rng, depth-1))
	}
}

// randAggSpec generates a random valid aggregate spec.
func randAggSpec(rng *rand.Rand) AggSpec {
	var s AggSpec
	switch rng.Intn(3) {
	case 0:
		s = CountSpec()
	case 1:
		s = SumSpec("rating")
	default:
		s = AvgSpec("enrollment")
	}
	if rng.Intn(2) == 0 {
		s = s.WithWhere(randPred(rng, 3))
	}
	return s
}

// testRecords builds estimator-visible records from a seeded workload,
// covering located and location-less rows.
func testRecords(t *testing.T, n int) []Record {
	t.Helper()
	sc := workload.USASchools(n, 11)
	recs := make([]Record, 0, 2*sc.DB.Len())
	for i := 0; i < sc.DB.Len(); i++ {
		tp := sc.DB.Tuple(i)
		r := Record{
			ID: tp.ID, HasLoc: true, Loc: tp.Loc,
			Name: tp.Name, Category: tp.Category, Attrs: tp.Attrs, Tags: tp.Tags,
		}
		recs = append(recs, r)
		r.HasLoc = false // the LNR view of the same tuple
		r.Loc = geom.Point{}
		recs = append(recs, r)
	}
	return recs
}

// TestPredSpecJSONRoundTrip is the round-trip property test: a random
// predicate marshals to JSON and back to a deeply equal tree whose
// compiled form agrees on every record.
func TestPredSpecJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := testRecords(t, 60)
	for trial := 0; trial < 200; trial++ {
		p := randPred(rng, 4)
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var back PredSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("trial %d: round trip changed the tree:\n%s\nfrom %+v\nto   %+v",
				trial, data, p, back)
		}
		f1, err := p.Compile()
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		f2, err := back.Compile()
		if err != nil {
			t.Fatalf("trial %d: compile round-tripped: %v", trial, err)
		}
		for ri := range recs {
			if f1(recs[ri]) != f2(recs[ri]) {
				t.Fatalf("trial %d: round-tripped predicate disagrees on record %d (%s)",
					trial, ri, data)
			}
		}
	}
}

// TestAggSpecJSONRoundTrip round-trips whole aggregate specs.
func TestAggSpecJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		s := randAggSpec(rng)
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var back AggSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("trial %d: round trip changed the spec: %s", trial, data)
		}
		if _, err := PlanBatch([]AggSpec{back}, PlanOptions{}); err != nil {
			t.Fatalf("trial %d: round-tripped spec does not compile: %v", trial, err)
		}
	}
}

// TestSpecMatchesLegacyClosures pins compiled specs against the
// legacy closure constructors on a seeded workload: identical Value on
// every record, identical Name and NeedsLocation.
func TestSpecMatchesLegacyClosures(t *testing.T) {
	recs := testRecords(t, 120)
	rect := geom.NewRect(geom.Pt(500, 300), geom.Pt(2500, 2000))
	cases := []struct {
		spec   AggSpec
		legacy Aggregate
	}{
		{CountSpec(), Count()},
		{SumSpec("enrollment"), SumAttr("enrollment")},
		{CountSpec().WithWhere(TagEq("open_sunday", "yes")), CountTag("open_sunday", "yes")},
		{CountSpec().WithWhere(InRect(rect)), CountInRect(rect)},
		{
			CountSpec().WithWhere(AttrCmp("enrollment", CmpGE, 500)),
			CountWhere("enrollment>=500", func(r Record) bool { return r.Attr("enrollment") >= 500 }),
		},
		{
			SumSpec("enrollment").WithWhere(AttrCmp("enrollment", CmpLT, 500)),
			SumAttrWhere("enrollment", "enrollment<500", func(r Record) bool { return r.Attr("enrollment") < 500 }),
		},
		{
			CountSpec().WithWhere(And(TagEq("open_sunday", "yes"), Not(InRect(rect)))),
			func() Aggregate {
				a := CountWhere("(open_sunday=yes and not in-rect)", func(r Record) bool {
					return r.Tag("open_sunday") == "yes" && !(r.HasLoc && rect.Contains(r.Loc))
				})
				a.NeedsLocation = true
				return a
			}(),
		},
	}
	for _, tc := range cases {
		agg, err := tc.spec.Compile()
		if err != nil {
			t.Fatalf("%+v: compile: %v", tc.spec, err)
		}
		if agg.Name != tc.legacy.Name {
			t.Errorf("name mismatch: spec %q vs legacy %q", agg.Name, tc.legacy.Name)
		}
		if agg.NeedsLocation != tc.legacy.NeedsLocation {
			t.Errorf("%s: NeedsLocation %v vs legacy %v", agg.Name, agg.NeedsLocation, tc.legacy.NeedsLocation)
		}
		for ri := range recs {
			if got, want := agg.Value(recs[ri]), tc.legacy.Value(recs[ri]); got != want {
				t.Fatalf("%s: record %d: spec value %g, legacy %g", agg.Name, ri, got, want)
			}
		}
	}
}

// TestSpecValidationRejects pins the malformed-spec errors.
func TestSpecValidationRejects(t *testing.T) {
	cases := []struct {
		name string
		pred *PredSpec
		agg  *AggSpec
		want string
	}{
		{name: "unknown op", pred: &PredSpec{Op: "between"}, want: "unknown predicate op"},
		{name: "missing op", pred: &PredSpec{}, want: "missing an op"},
		{name: "empty and", pred: &PredSpec{Op: OpAnd}, want: "at least one arg"},
		{name: "empty or", pred: &PredSpec{Op: OpOr}, want: "at least one arg"},
		{name: "not arity", pred: &PredSpec{Op: OpNot, Args: []PredSpec{CountSpecPred(), CountSpecPred()}}, want: "exactly one arg"},
		{name: "bad cmp", pred: &PredSpec{Op: OpAttrCmp, Attr: "rating", Cmp: "≈"}, want: "unknown cmp"},
		{name: "cmp without attr", pred: &PredSpec{Op: OpAttrCmp, Cmp: CmpLT}, want: "non-empty attr"},
		{name: "tag_eq without tag", pred: &PredSpec{Op: OpTagEq}, want: "non-empty tag"},
		{name: "in_rect without rect", pred: &PredSpec{Op: OpInRect}, want: "needs a rect"},
		{name: "inverted rect", pred: &PredSpec{Op: OpInRect, Rect: &RectSpec{MinX: 1, MaxX: 0, MinY: 0, MaxY: 1}}, want: "max < min"},
		{name: "leaf with args", pred: &PredSpec{Op: OpTagEq, Tag: "g", Args: []PredSpec{CountSpecPred()}}, want: "takes no args"},
		{name: "nested bad node", pred: &PredSpec{Op: OpAnd, Args: []PredSpec{{Op: "nope"}}}, want: "unknown predicate op"},
		{name: "unknown kind", agg: &AggSpec{Kind: "median"}, want: "unknown aggregate kind"},
		{name: "missing kind", agg: &AggSpec{}, want: "missing a kind"},
		{name: "sum without attr", agg: &AggSpec{Kind: AggSum}, want: "needs an attr"},
		{name: "avg without attr", agg: &AggSpec{Kind: AggAvg}, want: "needs an attr"},
		{name: "count with attr", agg: &AggSpec{Kind: AggCount, Attr: "rating"}, want: "takes no attr"},
		{name: "agg with bad where", agg: &AggSpec{Kind: AggCount, Where: &PredSpec{Op: OpAnd}}, want: "at least one arg"},
	}
	for _, tc := range cases {
		var err error
		if tc.pred != nil {
			err = tc.pred.Validate()
		} else {
			err = tc.agg.Validate()
		}
		if err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := PlanBatch(nil, PlanOptions{}); err == nil {
		t.Errorf("PlanBatch(nil): expected an error")
	}
	avg := AvgSpec("rating")
	if _, err := avg.Compile(); err == nil || !strings.Contains(err.Error(), "PlanBatch") {
		t.Errorf("AvgSpec.Compile should direct to PlanBatch, got %v", err)
	}
}

// CountSpecPred is a trivial valid predicate used as filler in arity
// tests.
func CountSpecPred() PredSpec { return TagEq("t", "v") }

// TestCompilePlanAvg pins the AVG expansion: one avg spec plans to a
// SUM/COUNT physical pair and finishes as their ratio, while a COUNT
// beside it passes straight through.
func TestCompilePlanAvg(t *testing.T) {
	plan, err := PlanBatch([]AggSpec{CountSpec(), AvgSpec("weight")}, PlanOptions{Seed: 3, MaxSamples: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Groups) != 1 {
		t.Fatalf("expected 1 group, got %d", len(plan.Groups))
	}
	// COUNT(*) is shared by the explicit count and the AVG denominator.
	if aggs := plan.Groups[0].Aggs; len(aggs) != 2 || aggs[0].Name != "COUNT(*)" || aggs[1].Name != "SUM(weight)" {
		t.Fatalf("expected physicals [COUNT(*) SUM(weight)], got %v", aggs)
	}
	svc, _ := smallService(t, 60, 3, 4)
	br, err := plan.Execute(context.Background(), svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("expected 2 finished results, got %d", len(br.Results))
	}
	count, avg := br.Results[0], br.Results[1]
	if count.Name != "COUNT(*)" || count.Samples != 20 {
		t.Errorf("count passthrough: %+v", count)
	}
	// The numerator, replayed alone on the group's seed and samples.
	ref, _ := smallService(t, 60, 3, 4)
	sum, err := Run(context.Background(), NewLRAggregator(ref, DefaultLROptions(3)),
		[]Aggregate{SumAttr("weight")}, WithMaxSamples(20))
	if err != nil {
		t.Fatal(err)
	}
	if want := sum[0].Estimate / count.Estimate; avg.Estimate != want {
		t.Errorf("avg ratio: got %g want %g", avg.Estimate, want)
	}
	if avg.Name != "AVG(weight)" {
		t.Errorf("avg name: got %q", avg.Name)
	}
}

// TestCompilePlanAvgZeroCountUndefined pins the zero-denominator
// guard: an AVG over an always-false selection finishes with NaN for
// the estimate AND its error bars — never Inf, and never a numeric
// StdErr/CI95 that would read as "exactly known". (The wire layer's
// JSONFloat then carries all three as null.)
func TestCompilePlanAvgZeroCountUndefined(t *testing.T) {
	never := AttrCmp("rating", "lt", -1) // Record.Attr floors at 0: always false
	check := func(label string, r Result) {
		t.Helper()
		if !math.IsNaN(r.Estimate) {
			t.Errorf("%s: estimate %v, want NaN (undefined)", label, r.Estimate)
		}
		if !math.IsNaN(r.StdErr) || !math.IsNaN(r.CI95) {
			t.Errorf("%s: stderr/ci95 = %v/%v, want NaN (an undefined ratio has no CI)",
				label, r.StdErr, r.CI95)
		}
		if r.Samples != 30 {
			t.Errorf("%s: samples %d, want 30", label, r.Samples)
		}
	}
	for _, parallelism := range []int{1, 3} {
		qp, err := PlanBatch([]AggSpec{AvgSpec("rating").WithWhere(never)},
			PlanOptions{Seed: 5, MaxSamples: 30, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		svc, _ := smallService(t, 40, 1, 2)
		br, err := qp.Execute(context.Background(), svc, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("PlanBatch/parallelism=%d", parallelism), br.Results[0])
	}
}
