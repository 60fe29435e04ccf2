package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Localize infers the position of tuple t to (approximately) EdgeEps
// precision using only rank information (§4.3). anchor must be a
// location where t is the top-1 result (e.g. the query that discovered
// t). The query cost is O(m log(1/ε)): one top-1 cell inference plus
// one extra bisector search per used vertex (the paper's "two
// additional calls to the binary search process").
//
// The per-vertex construction differs from the paper's angle
// bookkeeping in form but not substance. At a cell vertex o formed by
// edges L1 = B(t, t2) and L2 = B(t, t3), o is the circumcenter of
// (t, t2, t3) and also lies on d2 = B(t2, t3), whose direction one
// bracket search recovers. Reflection across a perpendicular bisector
// swaps its defining points, so for any p on d2,
//
//	d(p, t2) = d(p, t3)  ⇒  d(R1(p), t) = d(R2(p), t)
//	⇒  t ∈ Bisector(R1(p), R2(p)),
//
// with R1, R2 the reflections across L1, L2. That bisector is exactly
// the line through o and t (verified analytically and in tests), i.e.
// the same line the paper derives via its angle identity a+b+c = π.
// Two vertices give two such lines; their intersection is t.
func (a *LNRAggregator) Localize(ctx context.Context, tID int64, anchor geom.Point) (geom.Point, error) {
	ids, err := a.prober.probe(ctx, anchor)
	if err != nil {
		return geom.Point{}, err
	}
	if rankIn(ids, tID) != 0 {
		return geom.Point{}, fmt.Errorf("core: Localize anchor does not return tuple %d as top-1", tID)
	}
	_, cctx, err := a.buildCell(ctx, tID, 1, anchor)
	if err != nil {
		return geom.Point{}, err
	}
	return a.localizeWith(ctx, cctx)
}

// errUnlocatable marks a localization that failed for geometric
// reasons: too few usable cell vertices, no observable rank flip, a
// degenerate construction. The tuple then stays unlocated and the
// sample goes on. Every other error (a refused or failed query, a
// canceled context) ends the sample, as it does anywhere else in Step.
var errUnlocatable = errors.New("core: localization failed")

// unlocatable returns a geometric localization failure.
func unlocatable(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errUnlocatable}, args...)...)
}

// vertexLine is one (o, line-through-t) pair derived at a cell vertex.
type vertexLine struct {
	o    geom.Point
	line geom.Line
}

// localizeWith runs the two-vertex reflection construction over an
// inferred top-1 cell.
func (a *LNRAggregator) localizeWith(ctx context.Context, c *lnrCell) (geom.Point, error) {
	a.stats.Localizations++
	if c.h != 1 {
		return geom.Point{}, unlocatable("localization needs a top-1 cell, not top-%d", c.h)
	}
	keys := c.region.CutKeys()
	if len(keys) < 2 {
		return geom.Point{}, unlocatable("cell of %d has %d inferred edges; need ≥ 2", c.tID, len(keys))
	}
	verts := c.region.Vertices()
	// Candidate vertices: intersections of cut-line pairs, preferring
	// transverse pairs whose intersection coincides with an actual
	// region vertex (true Voronoi vertices, where the ring probe can
	// observe both opposing tuples).
	type cand struct {
		k1, k2   int64
		o        geom.Point
		vertDist float64
		cross    float64
	}
	var cands []cand
	for i := 0; i < len(keys); i++ {
		l1, _ := c.region.CutLine(keys[i])
		for j := i + 1; j < len(keys); j++ {
			l2, _ := c.region.CutLine(keys[j])
			cross := math.Abs(l1.Normal().Cross(l2.Normal()))
			if cross < 1e-3 {
				continue
			}
			o, ok := l1.Intersect(l2)
			if !ok || !a.bound.Contains(o) {
				continue
			}
			vd := math.Inf(1)
			for _, v := range verts {
				if d := v.Dist(o); d < vd {
					vd = d
				}
			}
			cands = append(cands, cand{k1: keys[i], k2: keys[j], o: o, vertDist: vd, cross: cross})
		}
	}
	if len(cands) < 2 {
		return geom.Point{}, unlocatable("cell of %d lacks two usable vertices", c.tID)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].vertDist < cands[j].vertDist })

	sep := math.Max(math.Sqrt(c.region.Area())/10, a.params.deltaPrime)
	var lines []vertexLine
	for _, cd := range cands {
		if len(lines) >= 2 {
			break
		}
		// Skip vertices too close to one already used: their lines
		// would be nearly identical.
		dup := false
		for _, vl := range lines {
			if vl.o.Dist(cd.o) < sep {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		vl, err := a.vertexLineAt(ctx, c, cd.k1, cd.k2, cd.o)
		if errors.Is(err, errUnlocatable) {
			continue // try the next candidate vertex
		}
		if err != nil {
			return geom.Point{}, err
		}
		lines = append(lines, vl)
	}
	if len(lines) < 2 {
		return geom.Point{}, unlocatable("could not derive two vertex lines for %d", c.tID)
	}
	t, ok := lines[0].line.Intersect(lines[1].line)
	if !ok {
		return geom.Point{}, unlocatable("vertex lines for %d are parallel", c.tID)
	}
	if !a.bound.Expand(a.bound.Diagonal() * 0.01).Contains(t) {
		return geom.Point{}, unlocatable("localization of %d landed outside the region", c.tID)
	}
	return t, nil
}

// vertexLineAt derives the line through vertex o and the hidden tuple
// via the reflection construction, spending one ring search plus one
// bracket search to infer d2 = B(t2, t3).
func (a *LNRAggregator) vertexLineAt(ctx context.Context, c *lnrCell, k1, k2 int64, o geom.Point) (vertexLine, error) {
	l1, _ := c.region.CutLine(k1)
	l2, _ := c.region.CutLine(k2)
	d2, err := a.findThirdBisector(ctx, c, k1, k2, o)
	if err != nil {
		return vertexLine{}, err
	}
	scale := math.Max(o.Dist(c.c1), math.Sqrt(c.region.Area()))
	if scale < geom.Eps {
		scale = a.bound.Diagonal() / 100
	}
	p := o.Add(d2.Direction().Scale(scale))
	r1, r2 := l1.Reflect(p), l2.Reflect(p)
	if r1.Dist(r2) < geom.Eps {
		return vertexLine{}, unlocatable("degenerate reflection at vertex %v", o)
	}
	return vertexLine{o: o, line: geom.Bisector(r1, r2)}, nil
}

// findThirdBisector infers d2 = B(t2, t3) through o: it probes a ring
// of points around o looking for a rank flip between t2 and t3, then
// bracket-searches the flipping arc chord. The line through o and the
// flip point is d2 (both o and the flip point are equidistant to t2
// and t3).
func (a *LNRAggregator) findThirdBisector(ctx context.Context, c *lnrCell, t2, t3 int64, o geom.Point) (geom.Line, error) {
	// Ring radius: a modest fraction of the cell scale keeps both
	// t2 and t3 within the top-k at the probes.
	radius := math.Max(math.Sqrt(c.region.Area())/4, o.Dist(c.c1)/4)
	if radius < geom.Eps {
		radius = a.bound.Diagonal() / 200
	}
	const ringProbes = 16
	type probePt struct {
		p   geom.Point
		ord int
	}
	for attempt := 0; attempt < 3; attempt++ {
		pts := a.ring(o, radius, ringProbes)
		if err := a.prober.prefetch(ctx, pts); err != nil {
			return geom.Line{}, err
		}
		ring := make([]probePt, 0, len(pts))
		for _, p := range pts {
			ids, err := a.prober.probe(ctx, p)
			if err != nil {
				return geom.Line{}, err
			}
			ring = append(ring, probePt{p: p, ord: relOrder(ids, t2, t3)})
		}
		// Find an adjacent +1/−1 pair on the ring.
		for i := 0; i < len(ring); i++ {
			pi := ring[i]
			pj := ring[(i+1)%len(ring)]
			if pi.ord == +1 && pj.ord == -1 || pi.ord == -1 && pj.ord == +1 {
				pos, neg := pi.p, pj.p
				if pi.ord == -1 {
					pos, neg = pj.p, pi.p
				}
				pred := func(p geom.Point) (bool, error) {
					ids, err := a.prober.probe(ctx, p)
					if err != nil {
						return false, err
					}
					return relOrder(ids, t2, t3) > 0, nil
				}
				c3, c4, err := predicateSearch(pos, neg, a.params.delta(), pred)
				if err != nil {
					return geom.Line{}, err
				}
				flip := c3.Mid(c4)
				if flip.Dist(o) < radius/8 {
					continue // too close to o for a stable direction
				}
				return geom.LineThrough(o, flip), nil
			}
		}
		radius /= 2 // shrink toward o where t2/t3 visibility improves
	}
	return geom.Line{}, unlocatable("could not observe a (t2, t3) rank flip near the vertex")
}
