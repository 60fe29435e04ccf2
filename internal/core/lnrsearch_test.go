package core

import (
	"math"
	"testing"

	"repro/internal/geom"
)

func TestPredicateSearchBracket(t *testing.T) {
	// Predicate: left of the vertical line x = 3.7.
	pred := func(p geom.Point) (bool, error) { return p.X < 3.7, nil }
	a, b := geom.Pt(0, 0), geom.Pt(10, 0)
	c3, c4, err := predicateSearch(a, b, 1e-6, pred)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Dist(c4) > 1e-6 {
		t.Fatalf("bracket too wide: %v", c3.Dist(c4))
	}
	if c3.X >= 3.7 || c4.X < 3.7 {
		t.Fatalf("bracket missed the boundary: %v %v", c3, c4)
	}
	if math.Abs(c3.Mid(c4).X-3.7) > 1e-6 {
		t.Fatalf("midpoint off the boundary: %v", c3.Mid(c4))
	}
}

func TestPredicateSearchErrorPropagation(t *testing.T) {
	pred := func(p geom.Point) (bool, error) { return false, errTest }
	if _, _, err := predicateSearch(geom.Pt(0, 0), geom.Pt(1, 0), 1e-3, pred); err == nil {
		t.Fatal("error not propagated")
	}
}

var errTest = errorString("test error")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestFineDeltaMonotonicity(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	p := newEdgeSearchParams(0.2, bounds)
	prev := math.Inf(1)
	for _, r := range []float64{0.1, 1, 10, 100} {
		d := p.fineDelta(r)
		if d > prev+1e-15 {
			t.Errorf("fineDelta increased at r=%v", r)
		}
		if d <= 0 || d > p.deltaCoarse {
			t.Errorf("fineDelta out of range at r=%v: %v", r, d)
		}
		prev = d
	}
}
