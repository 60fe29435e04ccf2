package core

import (
	"context"
	"errors"
	"maps"
	"math"
	"math/rand"
	"slices"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/sampling"
)

// LNROptions configures Algorithm LNR-LBS-AGG (§4): aggregate
// estimation over interfaces that return only a ranked list of tuple
// IDs.
type LNROptions struct {
	// H is the top-h cell used for weighting (≤ the service's k).
	// Default 1. Values > 1 exercise the concavity handling of §4.2.
	H int
	// EdgeEps is the target maximum edge error ε of the binary-search
	// edge inference; the estimation bias shrinks with ε (Theorem 2)
	// while the per-edge query cost grows as log(1/ε). Default:
	// bounds diagonal × 1e-3.
	EdgeEps float64
	// MaxCutsPerCell and MaxRoundsPerCell are robustness guards; a
	// tripped guard finishes the cell with its current region
	// (recorded in the stats).
	MaxCutsPerCell   int // default 64
	MaxRoundsPerCell int // default 50
	// Region restricts the estimation to a sub-region of the service's
	// coverage; zero means the whole service bounds (see
	// LROptions.Region).
	Region geom.Rect
	// Sampler is the query-location distribution (uniform when nil).
	Sampler sampling.Sampler
	// Filter is an optional server-side selection pass-through.
	Filter lbs.Filter
	// Seed drives randomness.
	Seed int64
}

// LNRStats counts internal events of an LNR run.
type LNRStats struct {
	Samples        int
	Cells          int
	EdgeSearches   int64
	VertexProbes   int64
	BisectorRepair int64 // Lemma-1 completeness searches (k>1)
	Localizations  int
	GuardTrips     int
	EmptyAnswers   int
}

// LNRAggregator implements Algorithm LNR-LBS-AGG (Algorithm 6 plus the
// §4.2 concavity extension and the §4.3 position inference).
type LNRAggregator struct {
	svc    Oracle
	opts   LNROptions
	rng    *rand.Rand
	smp    sampling.Sampler
	prober *lnrProber
	bound  geom.Rect
	params edgeSearchParams
	stats  LNRStats
	vtol   float64
}

// NewLNRAggregator builds an aggregator over a rank-only service view.
func NewLNRAggregator(svc Oracle, opts LNROptions) *LNRAggregator {
	if opts.H <= 0 {
		opts.H = 1
	}
	if opts.H > svc.K() {
		opts.H = svc.K()
	}
	if opts.EdgeEps <= 0 {
		opts.EdgeEps = svc.Bounds().Diagonal() * 1e-3
	}
	if opts.MaxCutsPerCell <= 0 {
		opts.MaxCutsPerCell = 64
	}
	if opts.MaxRoundsPerCell <= 0 {
		opts.MaxRoundsPerCell = 50
	}
	region := opts.Region
	if region.Area() <= 0 {
		region = svc.Bounds()
	}
	smp := opts.Sampler
	if smp == nil {
		smp = sampling.NewUniform(region)
	}
	return &LNRAggregator{
		svc:    svc,
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		smp:    smp,
		prober: newLNRProber(svc, opts.Filter),
		bound:  region,
		params: newEdgeSearchParams(opts.EdgeEps, region),
		vtol:   region.Diagonal() * 1e-9,
	}
}

// Stats returns run statistics accumulated so far.
func (a *LNRAggregator) Stats() LNRStats { return a.stats }

// lnrCell is the per-target state of one Voronoi-cell inference.
type lnrCell struct {
	tID    int64
	h      int
	c1     geom.Point // interior anchor: t ∈ top-h here
	region *cell.Complex
	coApp  map[int64]bool // tuples co-appearing with t (Lemma 1 candidates)
	// flipPts accumulates observed boundary points per opposing tuple;
	// every bracket search lands one more point on B(t, t′), and two
	// well-separated points pin the bisector line far more cheaply than
	// the per-edge angled re-search of Algorithm 7 (see registerFlip).
	flipPts map[int64][]geom.Point
	// refines counts per-key cut replacements, bounding repair loops.
	refines map[int64]int
}

// member reports whether t is within the top-h at p.
func (a *LNRAggregator) member(ctx context.Context, c *lnrCell, p geom.Point) (bool, error) {
	ids, err := a.prober.probe(ctx, p)
	if err != nil {
		return false, err
	}
	a.recordCoApp(c, ids)
	r := rankIn(ids, c.tID)
	return r >= 0 && r < c.h, nil
}

// validatedMemberBracket brackets the top-h boundary of t along
// [from, to] (member(from) must be true, member(to) false) and
// verifies the bracket sits on a genuine single-edge crossing: just
// outside, t must occupy rank h (0-based) with the displacing tuple at
// rank h−1. Brackets that jumped past a corner (t's rank beyond h) are
// refined up to three times; ok is false when no valid displacer can
// be identified (e.g. the crossing is the coverage/visibility
// boundary, where weighting must treat the region edge as a wall).
func (a *LNRAggregator) validatedMemberBracket(ctx context.Context, c *lnrCell, from, to geom.Point) (c3, c4 geom.Point, other int64, ok bool, err error) {
	memberPred := func(p geom.Point) (bool, error) { return a.member(ctx, c, p) }
	c3, c4, err = predicateSearch(from, to, a.params.deltaCoarse, memberPred)
	if err != nil {
		return c3, c4, 0, false, err
	}
	for attempt := 0; ; attempt++ {
		ids, err := a.prober.probe(ctx, c4)
		if err != nil {
			return c3, c4, 0, false, err
		}
		a.recordCoApp(c, ids)
		r := rankIn(ids, c.tID)
		if r == c.h && len(ids) >= c.h {
			// The crossing must be a clean adjacent swap: just inside,
			// t sits at rank h−1 with the candidate displacer directly
			// below it at rank h. Otherwise the bracket straddles more
			// than one rank event and the midpoint would not lie on
			// B(t, displacer).
			cand := ids[c.h-1]
			ids3, err := a.prober.probe(ctx, c3)
			if err != nil {
				return c3, c4, 0, false, err
			}
			if rankIn(ids3, c.tID) == c.h-1 && rankIn(ids3, cand) == c.h {
				return c3, c4, cand, true, nil
			}
		}
		if attempt >= 4 || c3.Dist(c4) <= a.params.deltaFloor*2 {
			// Strict rejection: a bracket whose outside endpoint does
			// not show t at exactly rank h crossed something other
			// than a single top-h boundary edge (a corner, or the edge
			// of t's visibility). Using it would register a flip point
			// off the bisector and silently corrupt the cell; the
			// vertex is left unconfirmed instead.
			return c3, c4, 0, false, nil
		}
		width := c3.Dist(c4) / 8
		if width < a.params.deltaFloor {
			width = a.params.deltaFloor
		}
		c3, c4, err = predicateSearch(c3, c4, width, memberPred)
		if err != nil {
			return c3, c4, 0, false, err
		}
	}
}

// recordCoApp extends the co-appearance set from a probe answer that
// contains t.
func (a *LNRAggregator) recordCoApp(c *lnrCell, ids []int64) {
	if rankIn(ids, c.tID) < 0 {
		return
	}
	for _, id := range ids {
		if id != c.tID {
			c.coApp[id] = true
		}
	}
}

// validIndicatorBracket reports whether an indicator bracket (c3, c4)
// for (t, other) is a genuine B(t, other) crossing: both tuples must be
// visible at both endpoints with t first inside and other first
// outside. Brackets that silently jumped a zone where one tuple left
// the top-k would otherwise register points on visibility boundaries
// instead of the bisector.
func (a *LNRAggregator) validIndicatorBracket(ctx context.Context, c *lnrCell, other int64, c3, c4 geom.Point) (bool, error) {
	ids3, err := a.prober.probe(ctx, c3)
	if err != nil {
		return false, err
	}
	ids4, err := a.prober.probe(ctx, c4)
	if err != nil {
		return false, err
	}
	r3t, r3o := rankIn(ids3, c.tID), rankIn(ids3, other)
	r4t, r4o := rankIn(ids4, c.tID), rankIn(ids4, other)
	return r3t >= 0 && r3o >= 0 && r4t >= 0 && r4o >= 0 &&
		r3t < r3o && r4o < r4t, nil
}

// orderPred builds the indicator predicate "t provably closer than t′"
// for bisector searches; unknown order counts as false, which biases
// the bracket toward the t side and is corrected by later vertex
// tests.
func (a *LNRAggregator) orderPred(ctx context.Context, c *lnrCell, other int64) func(geom.Point) (bool, error) {
	return func(p geom.Point) (bool, error) {
		ids, err := a.prober.probe(ctx, p)
		if err != nil {
			return false, err
		}
		a.recordCoApp(c, ids)
		return relOrder(ids, c.tID, other) > 0, nil
	}
}

// findEdgeAlong locates the boundary of the top-h cell along the ray
// from the anchor c1 in direction dir and returns the inferred cut.
// found is false when the cell reaches the bounding box along the ray.
func (a *LNRAggregator) findEdgeAlong(ctx context.Context, c *lnrCell, dir geom.Point) (cell.Cut, bool, error) {
	a.stats.EdgeSearches++
	exit, ok := a.rayExit(c, dir)
	if !ok {
		return cell.Cut{}, false, nil
	}
	mExit, err := a.member(ctx, c, exit)
	if err != nil {
		return cell.Cut{}, false, err
	}
	if mExit {
		return cell.Cut{}, false, nil // cell touches the boundary here
	}
	c3, c4, other, ok, err := a.validatedMemberBracket(ctx, c, c.c1, exit)
	if err != nil || !ok {
		return cell.Cut{}, false, err
	}
	cut, ok, err := a.registerFlip(ctx, c, other, c3.Mid(c4), c.c1)
	if err != nil || !ok {
		return cell.Cut{}, false, err
	}
	return cut, true, nil
}

// rayExit returns where the ray from the anchor c1 in direction dir
// leaves the region; ok is false when there is no exit at least the
// coarse bracket width away.
func (a *LNRAggregator) rayExit(c *lnrCell, dir geom.Point) (geom.Point, bool) {
	exit, ok := geom.RayRectExit(c.c1, dir, a.bound)
	if !ok || exit.Dist(c.c1) < a.params.deltaCoarse {
		return geom.Point{}, false
	}
	return exit, true
}

// ring returns the points of an n-point circle of the given radius
// around center that lie inside the region, in angular order.
func (a *LNRAggregator) ring(center geom.Point, radius float64, n int) []geom.Point {
	pts := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		p := center.Add(geom.Pt(math.Cos(ang), math.Sin(ang)).Scale(radius))
		if a.bound.Contains(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// registerFlip records one observed boundary point of B(t, t′) and
// derives the current best cut line for that bisector from the two
// farthest-apart observed points. Each point costs one coarse bracket
// search (positional error ≤ ε/4), so with separation s the angular
// error is ≤ ε/(2s) — with s of cell scale this beats Algorithm 7's
// δ′-offset construction at a fraction of the probes. When only one
// point is known, a second one is actively acquired by indicator
// bracket searches along wide-angle rays (secondFlipPoint); the
// indicator (t before t′) flips exactly on B(t, t′) no matter which
// cell edges lie between, so the second point may legitimately be far
// from the first. Only if every angled ray fails does the cut fall
// back to a perpendicular placeholder through the single point.
func (a *LNRAggregator) registerFlip(ctx context.Context, c *lnrCell, other int64, m geom.Point, anchor geom.Point) (cell.Cut, bool, error) {
	c.flipPts[other] = append(c.flipPts[other], m)
	minSep := math.Max(a.params.deltaPrime, anchor.Dist(m)/8)
	if _, _, d := farthestPair(c.flipPts[other]); d < minSep {
		p2, ok, err := a.secondFlipPoint(ctx, c, other, anchor, m)
		if err != nil {
			return cell.Cut{}, false, err
		}
		if ok {
			c.flipPts[other] = append(c.flipPts[other], p2)
		}
	}
	pa, pb, bestD := farthestPair(c.flipPts[other])
	if bestD <= a.params.deltaPrime {
		// No second point could be confirmed on B(t, t′); rather than
		// cut with a guessed line (which could silently slice the true
		// cell), report failure — the vertex loop keeps the region
		// conservatively large there and may succeed from another
		// direction later.
		return cell.Cut{}, false, nil
	}
	line := geom.LineThrough(pa, pb)
	// Orient: the anchor (closer to t) must lie on the negative side.
	if line.Eval(c.c1) > 0 {
		line = line.Flip()
	}
	return cell.Cut{Line: line, Key: other}, true, nil
}

// farthestPair returns the two points of pts with maximum separation.
func farthestPair(pts []geom.Point) (geom.Point, geom.Point, float64) {
	var pa, pb geom.Point
	best := 0.0
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d > best {
				best = d
				pa, pb = pts[i], pts[j]
			}
		}
	}
	return pa, pb, best
}

// secondFlipPoint finds another point on B(t, t′) by bracket-searching
// the (t, t′) order indicator along rays rotated away from the first
// crossing. The far endpoint must provably order t′ before t; rays
// where neither tuple is visible are skipped (shortened once before
// giving up), preventing brackets from landing on mere visibility
// boundaries.
func (a *LNRAggregator) secondFlipPoint(ctx context.Context, c *lnrCell, other int64, anchor, m geom.Point) (geom.Point, bool, error) {
	dir := m.Sub(anchor)
	r := dir.Norm()
	if r < geom.Eps {
		return geom.Point{}, false, nil
	}
	pred := a.orderPred(ctx, c, other)
	// Strategy 1: ring search around the first flip point. Probe a
	// circle of radius s centred on m (which lies on B(t, t′)); the
	// bisector crosses the circle at two points, so some adjacent pair
	// of ring probes shows opposite (t, t′) orders with both tuples
	// visible, and a bracket along that chord lands a second bisector
	// point at separation ≈ s regardless of the bisector's orientation.
	for _, frac := range []float64{0.5, 0.25, 1.0} {
		ring := a.ring(m, frac*r, 12)
		if err := a.prober.prefetch(ctx, ring); err != nil {
			return geom.Point{}, false, err
		}
		type probePt struct {
			p   geom.Point
			ord int
		}
		pts := make([]probePt, 0, len(ring))
		for _, p := range ring {
			ids, err := a.prober.probe(ctx, p)
			if err != nil {
				return geom.Point{}, false, err
			}
			a.recordCoApp(c, ids)
			pts = append(pts, probePt{p: p, ord: relOrder(ids, c.tID, other)})
		}
		for i := 0; i < len(pts); i++ {
			pi, pj := pts[i], pts[(i+1)%len(pts)]
			// Only the order flip matters here; both-visible is enforced
			// on the final bracket, where the co-visibility lens around
			// the bisector applies.
			if pi.ord*pj.ord != -1 {
				continue
			}
			pos, neg := pi.p, pj.p
			if pi.ord == -1 {
				pos, neg = pj.p, pi.p
			}
			c3, c4, err := predicateSearch(pos, neg, a.params.deltaCoarse, pred)
			if err != nil {
				return geom.Point{}, false, err
			}
			valid, err := a.validIndicatorBracket(ctx, c, other, c3, c4)
			if err != nil {
				return geom.Point{}, false, err
			}
			if !valid {
				continue
			}
			p2 := c3.Mid(c4)
			if p2.Dist(m) > a.params.deltaPrime {
				return p2, true, nil
			}
		}
	}
	// Strategy 2: wide-angle rays from the anchor.
	dirU := dir.Unit()
	for _, ang := range []float64{+0.5, -0.5, +0.9, -0.9, +0.25, -0.25} {
		dir2 := dirU.Rotate(ang)
		for _, scale := range []float64{1.5, 1.0} {
			far := anchor.Add(dir2.Scale(scale * r))
			if !a.bound.Contains(far) {
				exit, ok := geom.RayRectExit(anchor, dir2, a.bound)
				if !ok {
					break
				}
				far = exit
				if far.Dist(anchor) > scale*r {
					far = anchor.Add(dir2.Scale(scale * r))
				}
			}
			ids, err := a.prober.probe(ctx, far)
			if err != nil {
				return geom.Point{}, false, err
			}
			a.recordCoApp(c, ids)
			switch relOrder(ids, c.tID, other) {
			case +1:
				// Still on the t side: the bisector is farther out
				// along this ray than we reached; try the next angle.
				continue
			case 0:
				// Neither visible: shorten the ray and retry.
				continue
			}
			c3, c4, err := predicateSearch(anchor, far, a.params.deltaCoarse, pred)
			if err != nil {
				return geom.Point{}, false, err
			}
			valid, err := a.validIndicatorBracket(ctx, c, other, c3, c4)
			if err != nil {
				return geom.Point{}, false, err
			}
			if !valid {
				continue
			}
			p2 := c3.Mid(c4)
			if p2.Dist(m) > a.params.deltaPrime {
				return p2, true, nil
			}
		}
	}
	return geom.Point{}, false, nil
}

// buildCell infers the top-h Voronoi cell of tuple t from rank
// information alone. c1 must be a location where t ranks within the
// top h. The returned complex approximates V_h(t) with edge precision
// EdgeEps.
func (a *LNRAggregator) buildCell(ctx context.Context, tID int64, h int, c1 geom.Point) (*cell.Complex, *lnrCell, error) {
	a.stats.Cells++
	c := &lnrCell{
		tID:     tID,
		h:       h,
		c1:      c1,
		region:  cell.NewFromRect(a.bound, h),
		coApp:   make(map[int64]bool),
		flipPts: make(map[int64][]geom.Point),
		refines: make(map[int64]int),
	}
	// Initial four axis-aligned edge searches (Algorithm 6 line 3–5),
	// each of which starts by probing its ray's exit.
	dirs := []geom.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}
	exits := make([]geom.Point, 0, len(dirs))
	for _, dir := range dirs {
		if exit, ok := a.rayExit(c, dir); ok {
			exits = append(exits, exit)
		}
	}
	if err := a.prober.prefetch(ctx, exits); err != nil {
		return nil, nil, err
	}
	for _, dir := range dirs {
		cut, found, err := a.findEdgeAlong(ctx, c, dir)
		if err != nil {
			return nil, nil, err
		}
		if found && !c.region.HasCut(cut.Key) {
			c.region.AddCut(cut)
		}
	}
	confirmed := make(map[vkey]bool)
	for round := 0; round < a.opts.MaxRoundsPerCell; round++ {
		changed, err := a.vertexRound(ctx, c, confirmed)
		if err != nil {
			return nil, nil, err
		}
		if h > 1 {
			repaired, err := a.repairConcavity(ctx, c)
			if err != nil {
				return nil, nil, err
			}
			changed = changed || repaired
		}
		if !changed {
			return c.region, c, nil
		}
		if c.region.NumCuts() >= a.opts.MaxCutsPerCell {
			break
		}
	}
	a.stats.GuardTrips++
	return c.region, c, nil
}

// vertexRound runs one pass of Theorem-1 vertex confirmation, probing
// unconfirmed vertices and searching for the missing edge behind every
// failing vertex.
func (a *LNRAggregator) vertexRound(ctx context.Context, c *lnrCell, confirmed map[vkey]bool) (bool, error) {
	verts := c.region.Vertices()
	// The first vertex of every unconfirmed key is probed below no
	// matter what the others show; later ones of the same key may be
	// skipped once it confirms.
	first := make([]geom.Point, 0, len(verts))
	seen := make(map[vkey]bool, len(verts))
	for _, v := range verts {
		if key := a.vkeyOf(v); !confirmed[key] && !seen[key] {
			seen[key] = true
			first = append(first, v)
		}
	}
	if err := a.prober.prefetch(ctx, first); err != nil {
		return false, err
	}
	changed := false
	for _, v := range verts {
		key := a.vkeyOf(v)
		if confirmed[key] {
			continue
		}
		a.stats.VertexProbes++
		in, err := a.member(ctx, c, v)
		if err != nil {
			return false, err
		}
		if in {
			confirmed[key] = true
			continue
		}
		// v lies outside the true cell: discover the edge between.
		if v.Dist(c.c1) < a.params.deltaCoarse {
			confirmed[key] = true
			continue
		}
		c3, c4, other, ok, err := a.validatedMemberBracket(ctx, c, c.c1, v)
		if err != nil {
			return false, err
		}
		if !ok || other == c.tID {
			confirmed[key] = true
			continue
		}
		cut, cutOK, err := a.registerFlip(ctx, c, other, c3.Mid(c4), c.c1)
		if err != nil {
			return false, err
		}
		if !cutOK {
			continue // keep the vertex unconfirmed; retry next round
		}
		if !c.region.HasCut(cut.Key) {
			c.region.AddCut(cut)
			changed = true
		} else if c.refines[cut.Key] < 6 {
			// The edge was known but its line was off enough to leave
			// this vertex outside (a placeholder or an early two-point
			// estimate): replace with the refined line.
			c.refines[cut.Key]++
			c.region.ReplaceCut(cut)
			changed = true
		} else {
			confirmed[key] = true // accept ε-level boundary imprecision
		}
	}
	return changed, nil
}

// repairConcavity implements the §4.2 extension: for every tuple t′
// that co-appeared with t but has no registered bisector, look for a
// pair of probed region vertices whose (t, t′) order differs; the
// bisector B(t, t′) then crosses the segment between them and a
// bracket search pins it down, potentially restoring a missed inward
// vertex of the concave top-k cell.
func (a *LNRAggregator) repairConcavity(ctx context.Context, c *lnrCell) (bool, error) {
	verts := c.region.Vertices()
	if len(verts) < 2 {
		return false, nil
	}
	// Classify each vertex by probing (cached — vertices were probed
	// during the vertex round). Candidates go in ascending ID order:
	// each repair spends probes and adds cuts, so the order decides the
	// run, and map order would differ between same-seed runs.
	changed := false
	for _, other := range slices.Sorted(maps.Keys(c.coApp)) {
		if c.region.HasCut(other) {
			continue
		}
		var pos, neg *geom.Point
		for i := range verts {
			ids, err := a.prober.probe(ctx, verts[i])
			if err != nil {
				return false, err
			}
			switch relOrder(ids, c.tID, other) {
			case +1:
				pos = &verts[i]
			case -1:
				neg = &verts[i]
			}
			if pos != nil && neg != nil {
				break
			}
		}
		if pos == nil || neg == nil {
			continue // no witnessed flip: bisector cannot cut the region yet
		}
		a.stats.BisectorRepair++
		pred := a.orderPred(ctx, c, other)
		c3, c4, err := predicateSearch(*pos, *neg, a.params.deltaCoarse, pred)
		if err != nil {
			return false, err
		}
		valid, err := a.validIndicatorBracket(ctx, c, other, c3, c4)
		if err != nil {
			return false, err
		}
		if !valid {
			continue // visibility boundary, not B(t, t′)
		}
		cut, cutOK, err := a.registerFlip(ctx, c, other, c3.Mid(c4), *pos)
		if err != nil {
			return false, err
		}
		if !cutOK {
			continue
		}
		c.region.AddCut(cut)
		changed = true
	}
	return changed, nil
}

func (a *LNRAggregator) vkeyOf(p geom.Point) vkey {
	return vkey{int64(p.X / a.vtol), int64(p.Y / a.vtol)}
}

// massOfRegion integrates the sampling density over the region.
func (a *LNRAggregator) massOfRegion(region *cell.Complex) float64 {
	var mass float64
	for _, f := range region.Faces() {
		mass += a.smp.IntegratePolygon(f.Poly)
	}
	return mass
}

// Step draws one random query location and produces one per-sample
// estimate per aggregate (Algorithm 6 body). Only the top-ranked
// returned tuple is exploited when H = 1; with H > 1, each tuple at
// rank ≤ H is weighted by its top-H cell.
func (a *LNRAggregator) Step(ctx context.Context, aggs []Aggregate) ([]float64, error) {
	q := a.smp.Sample(a.rng)
	recs, err := a.prober.sample(ctx, q)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(aggs))
	if len(recs) == 0 {
		a.stats.EmptyAnswers++
		a.stats.Samples++
		return out, nil
	}
	h := a.opts.H
	needLoc := false
	for _, g := range aggs {
		if g.NeedsLocation {
			needLoc = true
		}
	}
	limit := h
	if limit > len(recs) {
		limit = len(recs)
	}
	for i := 0; i < limit; i++ {
		t := recs[i]
		region, cctx, err := a.buildCell(ctx, t.ID, h, q)
		if err != nil {
			return nil, err
		}
		p := a.massOfRegion(region)
		if p <= 0 {
			continue
		}
		rec := recordOfLNR(t)
		if needLoc {
			// A geometric failure leaves the tuple unlocated; an oracle
			// or context error ends the sample like any other query's.
			loc, err := a.localizeWith(ctx, cctx)
			switch {
			case err == nil:
				rec.HasLoc, rec.Loc = true, loc
			case !errors.Is(err, errUnlocatable):
				return nil, err
			}
		}
		for j := range aggs {
			out[j] += aggs[j].Value(rec) / p
		}
	}
	a.stats.Samples++
	return out, nil
}

// Service returns the Oracle this aggregator queries, implementing
// Estimator.
func (a *LNRAggregator) Service() Oracle { return a.svc }

// Fork returns an independent LNR aggregator of the same
// configuration over the same service for the Driver's parallel mode.
// The fork seed mixes a draw from the receiver's generator with the
// caller-supplied index (see LRAggregator.Fork); forks start with an
// empty probe cache.
func (a *LNRAggregator) Fork(seed int64) Estimator {
	opts := a.opts
	opts.Seed = a.rng.Int63() ^ (seed << 32)
	return NewLNRAggregator(a.svc, opts)
}

// Run draws samples through the shared Driver until one of the
// configured bounds triggers (see RunOption); with no options it runs
// until the service budget is exhausted or ctx is canceled.
func (a *LNRAggregator) Run(ctx context.Context, aggs []Aggregate, opts ...RunOption) ([]Result, error) {
	return Run(ctx, a, aggs, opts...)
}
