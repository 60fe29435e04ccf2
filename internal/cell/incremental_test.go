package cell

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// freshWithCuts builds a new complex with the same bound, k and cut
// set as c, inserting cuts in sorted key order — the reference result
// an incremental operation must match.
func freshWithCuts(c *Complex) *Complex {
	out := New(c.Bound(), c.K())
	for _, key := range c.CutKeys() {
		l, _ := c.CutLine(key)
		out.AddCut(Cut{Line: l, Key: key})
	}
	return out
}

// faceContains reports whether p lies in any face of the region.
func faceContains(c *Complex, p geom.Point) bool {
	for _, f := range c.Faces() {
		if f.Poly.Contains(p) {
			return true
		}
	}
	return false
}

// agreeOnSamples checks that two complexes with identical cut sets
// agree (area and membership) within tolerance. Sample points near
// subdivision edges are skipped via the cut-distance margin.
func agreeOnSamples(t *testing.T, rng *rand.Rand, got, want *Complex, label string) {
	t.Helper()
	if g, w := got.Area(), want.Area(); !almost(g, w, 1e-7) {
		t.Fatalf("%s: area mismatch: got %.12f want %.12f", label, g, w)
	}
	for trial := 0; trial < 200; trial++ {
		p := geom.RandomInRect(rng, unitBox)
		margin := 1e-7
		tooClose := false
		for _, key := range want.CutKeys() {
			l, _ := want.CutLine(key)
			if l.Dist(p) < margin {
				tooClose = true
				break
			}
		}
		if tooClose {
			continue
		}
		if g, w := faceContains(got, p), faceContains(want, p); g != w {
			t.Fatalf("%s: membership mismatch at %v: got %v want %v", label, p, g, w)
		}
	}
}

// TestReplaceCutIncrementalMatchesFresh refines random cuts repeatedly
// and checks the incremental wedge path against a from-scratch build of
// the same final cut set, for k = 1 and k > 1 (where replaced lines
// can hand area back to the region).
func TestReplaceCutIncrementalMatchesFresh(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		for round := 0; round < 20; round++ {
			target := geom.RandomInRect(rng, unitBox)
			c := NewFromRect(unitBox, k)
			sites := make([]geom.Point, 12)
			for i := range sites {
				sites[i] = geom.RandomInRect(rng, unitBox)
				if sites[i].Dist(target) < 1e-3 {
					sites[i] = sites[i].Add(geom.Pt(1e-2, 1e-2))
				}
				c.AddCut(Cut{Line: geom.Bisector(target, sites[i]), Key: int64(i)})
			}
			// Refine a few cuts with perturbed bisectors (the LNR
			// binary-search pattern: lines move slightly, both ways).
			for step := 0; step < 8; step++ {
				i := rng.Intn(len(sites))
				jitter := geom.Pt(rng.NormFloat64(), rng.NormFloat64()).Scale(0.02)
				moved := sites[i].Add(jitter)
				if moved.Dist(target) < 1e-3 {
					continue
				}
				sites[i] = moved
				c.ReplaceCut(Cut{Line: geom.Bisector(target, moved), Key: int64(i)})
				agreeOnSamples(t, rng, c, freshWithCuts(c), "after replace")
			}
		}
	}
}

// TestReplaceCutGrowsRegion replaces a cut with a strictly laxer line
// and checks the handed-back area is recovered (the case a pure
// re-split of surviving faces cannot handle).
func TestReplaceCutGrowsRegion(t *testing.T) {
	c := NewFromRect(unitBox, 1)
	a := geom.Pt(0.2, 0.5)
	c.AddCut(Cut{Line: geom.Bisector(a, geom.Pt(0.4, 0.5)), Key: 1})
	shrunk := c.Area()
	if !almost(shrunk, 0.3, 1e-9) {
		t.Fatalf("setup area = %.9f, want 0.3", shrunk)
	}
	// Move the opposing site farther away: the cell must grow back.
	c.ReplaceCut(Cut{Line: geom.Bisector(a, geom.Pt(0.8, 0.5)), Key: 1})
	if got := c.Area(); !almost(got, 0.5, 1e-9) {
		t.Fatalf("area after laxer replace = %.9f, want 0.5", got)
	}
}

// TestReplaceCutUnknownKeyAdds preserves the legacy semantics that
// replacing a never-registered key simply adds the cut.
func TestReplaceCutUnknownKeyAdds(t *testing.T) {
	c := NewFromRect(unitBox, 1)
	c.ReplaceCut(Cut{Line: geom.Bisector(geom.Pt(0.25, 0.5), geom.Pt(0.75, 0.5)), Key: 9})
	if got := c.Area(); !almost(got, 0.5, 1e-9) {
		t.Fatalf("area = %.9f, want 0.5", got)
	}
	if !c.HasCut(9) {
		t.Fatal("cut not registered")
	}
}

// TestResetRestoresInitialState checks Reset brings the complex back to
// the cut-free bound while preserving correctness of a rebuild.
func TestResetRestoresInitialState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	target := geom.Pt(0.5, 0.5)
	var cuts []Cut
	for i := 0; i < 30; i++ {
		s := geom.RandomInRect(rng, unitBox)
		if s.Dist(target) < 1e-3 {
			continue
		}
		cuts = append(cuts, Cut{Line: geom.Bisector(target, s), Key: int64(i)})
	}
	c := NewFromRect(unitBox, 2)
	for _, cut := range cuts {
		c.AddCut(cut)
	}
	want := c.Area()
	c.Reset(c.K())
	if got := c.Area(); !almost(got, 1, 1e-12) {
		t.Fatalf("area after Reset = %.12f, want 1", got)
	}
	if c.NumCuts() != 0 || c.NumFaces() != 1 {
		t.Fatalf("after Reset: %d cuts, %d faces", c.NumCuts(), c.NumFaces())
	}
	for _, cut := range cuts {
		c.AddCut(cut)
	}
	if got := c.Area(); !almost(got, want, 1e-9) {
		t.Fatalf("area after reset+reinsert = %.12f, want %.12f", got, want)
	}
}

// TestAddCutSteadyStateAllocs asserts the headline contract of the
// geometry-engine overhaul: once warm, a Reset + full cut re-insertion
// cycle performs zero heap allocations.
func TestAddCutSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	target := geom.Pt(0.5, 0.5)
	var cuts []Cut
	for i := 0; i < 40; i++ {
		s := geom.RandomInRect(rng, unitBox)
		if s.Dist(target) < 1e-3 {
			continue
		}
		cuts = append(cuts, Cut{Line: geom.Bisector(target, s), Key: int64(i)})
	}
	c := NewFromRect(unitBox, 3)
	insert := func() {
		c.Reset(c.K())
		for _, cut := range cuts {
			c.AddCut(cut)
		}
	}
	insert() // warm the pools
	insert()
	if allocs := testing.AllocsPerRun(10, insert); allocs != 0 {
		t.Fatalf("steady-state AddCut cycle allocates %.1f allocs/run, want 0", allocs)
	}
}

// TestIncrementalAreaMatchesFaceSum guards the incremental cachedArea
// bookkeeping against drift relative to a direct face scan.
func TestIncrementalAreaMatchesFaceSum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{1, 3} {
		target := geom.RandomInRect(rng, unitBox)
		c := NewFromRect(unitBox, k)
		for i := 0; i < 60; i++ {
			s := geom.RandomInRect(rng, unitBox)
			if s.Dist(target) < 1e-3 {
				continue
			}
			if i%7 == 3 && c.NumCuts() > 0 {
				c.ReplaceCut(Cut{Line: geom.Bisector(target, s), Key: int64(i % 5)})
			} else {
				c.AddCut(Cut{Line: geom.Bisector(target, s), Key: int64(i)})
			}
			var sum float64
			for _, f := range c.Faces() {
				sum += f.Poly.Area()
			}
			if !almost(c.Area(), sum, 1e-9) {
				t.Fatalf("k=%d cut %d: cached area %.12f, face sum %.12f", k, i, c.Area(), sum)
			}
		}
	}
}

// TestInsertSitesBatchDuplicates verifies in-batch duplicate keys are
// inserted once and produce the same region as a deduplicated batch.
func TestInsertSitesBatchDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	target := geom.Pt(0.5, 0.5)
	base := make([]Site, 0, 20)
	for i := 0; i < 20; i++ {
		base = append(base, Site{Key: int64(i), Loc: geom.RandomInRect(rng, unitBox)})
	}
	dup := make([]Site, 0, 3*len(base))
	for rep := 0; rep < 3; rep++ {
		dup = append(dup, base...)
	}
	a := BuildFromSites(unitBox.Polygon(), 2, target, base)
	b := BuildFromSites(unitBox.Polygon(), 2, target, dup)
	if !almost(a.Area(), b.Area(), 1e-12) {
		t.Fatalf("area with dups %.12f != without %.12f", b.Area(), a.Area())
	}
	if a.NumCuts() != b.NumCuts() {
		t.Fatalf("cuts with dups %d != without %d", b.NumCuts(), a.NumCuts())
	}
}

// sameFaces reports whether two complexes hold bitwise-identical faces
// in the same order.
func sameFaces(a, b *Complex) bool {
	fa, fb := a.Faces(), b.Faces()
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i].Count != fb[i].Count || len(fa[i].Poly) != len(fb[i].Poly) {
			return false
		}
		for j := range fa[i].Poly {
			if fa[i].Poly[j] != fb[i].Poly[j] {
				return false
			}
		}
	}
	return true
}

// TestInsertSitesTieOrderDeterministic builds cells from shuffled site
// slices in which several keys share a location: equal-distance sites
// must pop in Key order, so every shuffle registers the same cuts and
// yields bitwise-identical faces.
func TestInsertSitesTieOrderDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 2, 4} {
		for round := 0; round < 20; round++ {
			target := geom.RandomInRect(rng, unitBox)
			var sites []Site
			for i := 0; i < 25; i++ {
				loc := geom.RandomInRect(rng, unitBox)
				for rep := 0; rep <= rng.Intn(3); rep++ {
					sites = append(sites, Site{Key: int64(len(sites)), Loc: loc})
				}
			}
			// Mirrored pairs put distinct locations at equal distance.
			for i := 0; i < 5; i++ {
				d := geom.Pt(rng.Float64()*0.2, rng.Float64()*0.2)
				sites = append(sites,
					Site{Key: int64(len(sites)), Loc: target.Add(d)},
					Site{Key: int64(len(sites) + 1), Loc: target.Sub(d)})
			}
			want := BuildFromSites(unitBox.Polygon(), k, target, sites)
			for shuffle := 0; shuffle < 5; shuffle++ {
				rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
				got := BuildFromSites(unitBox.Polygon(), k, target, sites)
				if !slices.Equal(got.CutKeys(), want.CutKeys()) {
					t.Fatalf("k=%d round %d: cut keys depend on input order:\n%v\n%v",
						k, round, got.CutKeys(), want.CutKeys())
				}
				if !sameFaces(got, want) {
					t.Fatalf("k=%d round %d: faces depend on input order", k, round)
				}
			}
		}
	}
}

// uncachedMaxDist is the memo-free reference for MaxDistFrom: the
// maximum Hypot distance over every face vertex.
func uncachedMaxDist(c *Complex, p geom.Point) float64 {
	var m float64
	for _, f := range c.Faces() {
		if d := f.Poly.MaxDistFrom(p); d > m {
			m = d
		}
	}
	return m
}

// TestMaxDistFromMemoInvalidation warms the MaxDistFrom memo before
// every mutating call and checks the answer afterwards against a fresh
// uncached computation, for the memoized point and a new one.
func TestMaxDistFromMemoInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{1, 3} {
		target := geom.RandomInRect(rng, unitBox)
		c := NewFromRect(unitBox, k)
		check := func(step int, op string, c *Complex) {
			t.Helper()
			for _, p := range []geom.Point{target, geom.RandomInRect(rng, unitBox)} {
				if got, want := c.MaxDistFrom(p), uncachedMaxDist(c, p); got != want {
					t.Fatalf("k=%d step %d after %s: MaxDistFrom %v, uncached %v", k, step, op, got, want)
				}
			}
		}
		siteAt := func() Site {
			return Site{Key: int64(rng.Intn(200)), Loc: geom.RandomInRect(rng, unitBox)}
		}
		for step := 0; step < 300; step++ {
			c.MaxDistFrom(target) // warm the memo
			switch op := rng.Intn(6); op {
			case 0:
				s := siteAt()
				c.AddCut(Cut{Line: geom.Bisector(target, s.Loc), Key: s.Key})
				check(step, "AddCut", c)
			case 1:
				keys := c.CutKeys()
				if len(keys) == 0 {
					continue
				}
				key := keys[rng.Intn(len(keys))]
				l, _ := c.CutLine(key)
				l.C += (rng.Float64() - 0.5) * 0.02
				c.ReplaceCut(Cut{Line: l, Key: key})
				check(step, "ReplaceCut", c)
			case 2:
				batch := make([]Site, 1+rng.Intn(8))
				for i := range batch {
					batch[i] = siteAt()
				}
				InsertSites(c, target, batch)
				check(step, "InsertSites", c)
			case 3:
				if rng.Intn(8) == 0 {
					c.Reset(c.K())
					check(step, "Reset", c)
				}
			case 4:
				w := c.WithK(1 + rng.Intn(k))
				check(step, "WithK", w)
				w.MaxDistFrom(target)
				w.AddCut(Cut{Line: geom.Bisector(target, siteAt().Loc), Key: -1})
				check(step, "WithK+AddCut", w)
			case 5:
				cl := c.Clone()
				check(step, "Clone", cl)
				cl.MaxDistFrom(target)
				cl.Reset(cl.K())
				check(step, "Clone+Reset", cl)
				check(step, "Clone (original)", c)
			}
		}
	}
}

// TestShallowComplexIsDeepPrefix pins the invariant that lets a caller
// build a cell only as deep as it needs: for the same sites fed
// through InsertSites in the same batches, the depth-m complex holds
// exactly the depth-k complex's faces of count ≤ m−1 — the same
// polygons, bit for bit, in the same order. Counts only grow, a face
// is split only by cuts that reach it, and the smaller region's
// pruning drops only cuts that cannot touch those faces. So every
// AreaAtMost(h) with h < m agrees bit for bit; AreaAtMost(m) is the
// depth-m complex's incrementally cached area, equal only up to
// rounding to the depth-k face sum. The depth-m complexes are one
// complex Reset to each depth in turn.
func TestShallowComplexIsDeepPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shallow := NewFromRect(unitBox, 1)
	pruned := 0 // shallow builds that registered fewer cuts
	for round := 0; round < 60; round++ {
		k := 2 + rng.Intn(5)
		target := geom.RandomInRect(rng, unitBox)
		if round%4 == 0 {
			target = geom.Pt(rng.Float64()*1e-3, rng.Float64()) // near the boundary
		}
		var batches [][]Site
		for b := 0; b < 1+rng.Intn(4); b++ {
			batch := make([]Site, 5+rng.Intn(60))
			for i := range batch {
				batch[i] = Site{Key: int64(len(batches)*1000 + i), Loc: geom.RandomInRect(rng, unitBox)}
			}
			batches = append(batches, batch)
		}
		deep := NewFromRect(unitBox, k)
		for _, batch := range batches {
			InsertSites(deep, target, batch)
		}
		for m := 1; m <= k; m++ {
			shallow.Reset(m)
			for _, batch := range batches {
				InsertSites(shallow, target, batch)
			}
			if shallow.NumCuts() < deep.NumCuts() {
				pruned++
			}
			var want []Face
			for _, f := range deep.Faces() {
				if f.Count <= m-1 {
					want = append(want, f)
				}
			}
			got := shallow.Faces()
			if len(got) != len(want) {
				t.Fatalf("round %d k=%d m=%d: %d faces, want %d", round, k, m, len(got), len(want))
			}
			for i := range got {
				if got[i].Count != want[i].Count || !slices.Equal(got[i].Poly, want[i].Poly) {
					t.Fatalf("round %d k=%d m=%d: face %d differs", round, k, m, i)
				}
			}
			for h := 1; h < m; h++ {
				if g, w := shallow.AreaAtMost(h), deep.AreaAtMost(h); g != w {
					t.Fatalf("round %d k=%d m=%d: AreaAtMost(%d) = %v, want %v", round, k, m, h, g, w)
				}
			}
			if g, w := shallow.AreaAtMost(m), deep.AreaAtMost(m); !almost(g, w, 1e-12) {
				t.Fatalf("round %d k=%d m=%d: AreaAtMost(%d) = %v, want %v", round, k, m, m, g, w)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no shallow build pruned a cut; the test exercises nothing")
	}
}
