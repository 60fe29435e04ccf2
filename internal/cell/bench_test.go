package cell

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// BenchmarkBuildTop1 measures exact top-1 cell construction with the
// distance-pruned insertion — the inner loop of every LR sample.
func BenchmarkBuildTop1(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 500)
	sites := make([]Site, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		sites = append(sites, Site{Key: int64(i), Loc: pts[i]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFromSites(unitBox.Polygon(), 1, pts[0], sites)
	}
}

// BenchmarkBuildTop5 measures the cost growth for top-k subdivisions
// (more faces, count bookkeeping) — the price of the §3.2.3 device.
func BenchmarkBuildTop5(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 500)
	sites := make([]Site, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		sites = append(sites, Site{Key: int64(i), Loc: pts[i]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildFromSites(unitBox.Polygon(), 5, pts[0], sites)
	}
}

// BenchmarkAddCut measures steady-state subdivision refinement: one
// complex is Reset and refilled with the same 63 cuts every iteration,
// so the per-complex pools are warm and the loop must show 0 allocs/op
// (the headline acceptance contract of the geometry-engine overhaul).
func BenchmarkAddCut(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 64)
	c := NewFromRect(unitBox, 3)
	fill := func() {
		c.Reset(c.K())
		for j := 1; j < len(pts); j++ {
			c.AddCut(Cut{Line: geom.Bisector(pts[0], pts[j]), Key: int64(j)})
		}
	}
	fill() // warm pools and map buckets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
	}
}

// BenchmarkReplaceCut measures one LNR-style refinement: an existing
// cut's line is replaced by a slightly perturbed one, exercising the
// incremental wedge path (the pre-overhaul implementation rebuilt the
// whole complex here).
func BenchmarkReplaceCut(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	pts := randomPoints(rng, 64)
	c := NewFromRect(unitBox, 3)
	for j := 1; j < len(pts); j++ {
		c.AddCut(Cut{Line: geom.Bisector(pts[0], pts[j]), Key: int64(j)})
	}
	keys := c.CutKeys()
	// Two alternating perturbed lines per registered cut, precomputed
	// outside the timed loop, so every ReplaceCut genuinely moves the
	// line (a repeated identical line short-circuits).
	lines := make([][2]geom.Line, len(keys))
	for i, k := range keys {
		for v := 0; v < 2; v++ {
			q := pts[k].Add(geom.Pt(rng.NormFloat64(), rng.NormFloat64()).Scale(1e-3))
			lines[i][v] = geom.Bisector(pts[0], q)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		c.ReplaceCut(Cut{Line: lines[j][(i/len(keys))%2], Key: keys[j]})
	}
}

// BenchmarkInsertSites measures the batched distance-pruned insertion
// (history replay: most sites are pruned before cutting).
func BenchmarkInsertSites(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pts := randomPoints(rng, 500)
	sites := make([]Site, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		sites = append(sites, Site{Key: int64(i), Loc: pts[i]})
	}
	c := NewFromRect(unitBox, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset(c.K())
		InsertSites(c, pts[0], sites)
	}
}

// BenchmarkRandomPoint measures region sampling (the §3.2.4 Monte-
// Carlo trial generator).
func BenchmarkRandomPoint(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(rng, 200)
	c := buildFor(pts, 0, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RandomPoint(rng)
	}
}

// BenchmarkVertices measures vertex-set extraction (the Theorem-1
// test-point enumeration).
func BenchmarkVertices(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 200)
	c := buildFor(pts, 0, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Vertices()
	}
}
