// Package cell implements top-k Voronoi cell regions as convex
// subdivisions ("cell complexes").
//
// Given a target tuple t and a set of "cuts" — perpendicular bisectors
// between t and other tuples, each oriented so that one side is closer
// to t — the top-k Voronoi cell of t with respect to those tuples is
//
//	V_k(t) = { q : |{cuts whose far side contains q}| ≤ k−1 },
//
// because crossing a bisector between two tuples other than t never
// changes how many tuples are closer to q than t. For k = 1 the region
// is the classical (convex) Voronoi cell; for k > 1 it may be concave
// (Figure 1 of the paper), which is why the region is represented as a
// set of disjoint convex faces, each annotated with its "closer count".
//
// The complex supports the operations both estimation algorithms need:
// exact area, the vertex set (for the Theorem-1 confirmation loop),
// membership tests, per-h sub-areas (λ_h upper bounds for the variance
// reduction of §3.2.3), and uniform random sampling (for the
// Monte-Carlo device of §3.2.4).
//
// # Allocation discipline
//
// Cut insertion is the innermost loop of every estimator sample, so the
// complex recycles its own storage: face polygons are drawn from a
// per-complex free list, faces are double-buffered across AddCut
// passes, and each face caches its bounding box and area so cuts that
// cannot touch a face are rejected in O(1) without splitting. Steady-
// state insertion (and Reset + re-insertion) performs no heap
// allocation. The flip side of recycling is aliasing: slices returned
// by Faces() — including the face polygons themselves — are valid only
// until the next mutating call (AddCut, ReplaceCut, InsertSites,
// Reset); callers that need longer-lived views must copy.
package cell

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
)

// Face is one convex piece of the subdivision. Count is the number of
// registered cuts whose far side (closer to the cut's other tuple than
// to the target) contains the face. The bounding box and area of Poly
// are cached at construction for the fast-reject test and incremental
// area maintenance.
type Face struct {
	Poly  geom.Polygon
	Count int
	bbox  geom.Rect
	area  float64
}

// newFace builds a face with its cached bounding box and area.
func newFace(poly geom.Polygon, count int) Face {
	return Face{Poly: poly, Count: count, bbox: poly.BoundingRect(), area: poly.Area()}
}

// Area returns the face's cached polygon area.
func (f *Face) Area() float64 { return f.area }

// Bounds returns the face's cached bounding rectangle.
func (f *Face) Bounds() geom.Rect { return f.bbox }

// Cut is one oriented bisector: the negative side of Line is the side
// closer to the target tuple t. Key identifies the other tuple (an ID
// or index) so callers can deduplicate; Source records provenance for
// diagnostics.
type Cut struct {
	Line geom.Line
	// Key identifies the opposing tuple. Cuts with a Key already
	// registered are ignored by AddCut.
	Key int64
}

// Complex is a top-k Voronoi cell region under construction. The zero
// value is not usable; construct with New.
type Complex struct {
	k     int
	bound geom.Polygon
	faces []Face
	cuts  map[int64]geom.Line
	// cachedArea is maintained incrementally: faces entering or leaving
	// the region add or subtract their cached polygon area.
	cachedArea float64

	// Recycled storage (see the package comment): facesBuf is the
	// double buffer AddCut writes into, polyPool the free list of
	// polygon backing arrays.
	facesBuf []Face
	polyPool []geom.Polygon

	// MaxDistFrom memo: the last query point and its answer, valid
	// until the next mutation of the faces (see invalidate).
	maxDistValid bool
	maxDistFrom  geom.Point
	maxDist      float64
}

// New returns a complex over the given convex bounding polygon for the
// top-k cell of a target. k must be ≥ 1 and bound non-degenerate.
func New(bound geom.Polygon, k int) *Complex {
	if k < 1 {
		panic("cell: k must be ≥ 1")
	}
	if bound.Area() < geom.Eps {
		panic("cell: degenerate bounding polygon")
	}
	c := &Complex{
		k:     k,
		bound: bound.Clone(),
		cuts:  make(map[int64]geom.Line),
	}
	f := newFace(bound.Clone(), 0)
	c.faces = []Face{f}
	c.cachedArea = f.area
	return c
}

// NewFromRect is a convenience wrapper building the complex over a
// rectangular bounding box.
func NewFromRect(bound geom.Rect, k int) *Complex {
	return New(bound.Polygon(), k)
}

// K returns the k this complex was built for.
func (c *Complex) K() int { return c.k }

// Bound returns the bounding polygon the complex started from.
func (c *Complex) Bound() geom.Polygon { return c.bound }

// NumCuts returns the number of distinct registered cuts.
func (c *Complex) NumCuts() int { return len(c.cuts) }

// NumFaces returns the number of convex faces currently in the region.
func (c *Complex) NumFaces() int { return len(c.faces) }

// HasCut reports whether a cut with the given key is registered.
func (c *Complex) HasCut(key int64) bool {
	_, ok := c.cuts[key]
	return ok
}

// CutLine returns the registered line for key.
func (c *Complex) CutLine(key int64) (geom.Line, bool) {
	l, ok := c.cuts[key]
	return l, ok
}

// CutKeys returns the keys of all registered cuts in ascending order.
func (c *Complex) CutKeys() []int64 {
	keys := make([]int64, 0, len(c.cuts))
	for k := range c.cuts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// allocPoly pops a recycled polygon backing array from the free list
// (nil when the list is empty — append then allocates once and the
// grown array joins the list on release).
func (c *Complex) allocPoly() geom.Polygon {
	if n := len(c.polyPool); n > 0 {
		p := c.polyPool[n-1]
		c.polyPool = c.polyPool[:n-1]
		return p
	}
	return nil
}

// freePoly returns a polygon backing array to the free list.
func (c *Complex) freePoly(p geom.Polygon) {
	if cap(p) == 0 {
		return
	}
	c.polyPool = append(c.polyPool, p[:0])
}

// invalidate drops the MaxDistFrom memo; every path that changes the
// face set calls it.
func (c *Complex) invalidate() { c.maxDistValid = false }

// Reset returns the complex to its initial cut-free state for the
// top-k cell (k ≥ 1) while retaining all allocated capacity (cut map
// buckets, face buffers, polygon free list, site scratch), so repeated
// build/reset cycles on one complex are allocation-free in steady
// state, whatever depth each cycle builds to.
func (c *Complex) Reset(k int) {
	if k < 1 {
		panic("cell: k must be ≥ 1")
	}
	c.k = k
	for i := range c.faces {
		c.freePoly(c.faces[i].Poly)
	}
	clear(c.cuts)
	p := append(c.allocPoly()[:0], c.bound...)
	f := newFace(p, 0)
	c.faces = append(c.faces[:0], f)
	c.cachedArea = f.area
	c.invalidate()
}

// AddCut registers a new oriented bisector and refines the subdivision:
// every face is split by the cut; the piece on the far (positive) side
// has its count incremented and is dropped once the count reaches k.
// It returns true if the cut changed the region (was new and clipped at
// least one face).
func (c *Complex) AddCut(cut Cut) bool {
	if _, dup := c.cuts[cut.Key]; dup {
		return false
	}
	c.cuts[cut.Key] = cut.Line
	return c.applyCut(cut.Line)
}

// applyCut refines every face by an already-registered line. Faces
// whose cached bounding box lies entirely on one side of the line are
// classified in O(1); only genuinely crossed faces are split, into
// pooled buffers.
func (c *Complex) applyCut(line geom.Line) bool {
	changed := false
	out := c.facesBuf[:0]
	for _, f := range c.faces {
		lo, hi := line.EvalRange(f.bbox)
		if hi <= geom.Eps {
			// Entire face on the near side: unchanged.
			out = append(out, f)
			continue
		}
		if lo >= -geom.Eps {
			// Entire face on the far side.
			changed = true
			if f.Count+1 <= c.k-1 {
				f.Count++
				out = append(out, f)
			} else {
				c.cachedArea -= f.area
				c.freePoly(f.Poly)
			}
			continue
		}
		negDst, posDst := c.allocPoly(), c.allocPoly()
		neg, pos, crossed := f.Poly.SplitInto(line, negDst, posDst)
		if !crossed {
			// The bounding box straddles the line but the polygon does
			// not: same one-sided handling as above.
			c.freePoly(negDst)
			c.freePoly(posDst)
			if pos == nil {
				out = append(out, f)
				continue
			}
			changed = true
			if f.Count+1 <= c.k-1 {
				f.Count++
				out = append(out, f)
			} else {
				c.cachedArea -= f.area
				c.freePoly(f.Poly)
			}
			continue
		}
		if pos == nil {
			// The far piece was a sub-Eps sliver: the face is
			// effectively untouched (legacy Split semantics).
			c.freePoly(negDst)
			c.freePoly(posDst)
			out = append(out, f)
			continue
		}
		changed = true
		c.cachedArea -= f.area
		c.freePoly(f.Poly)
		if neg != nil {
			nf := newFace(neg, f.Count)
			c.cachedArea += nf.area
			out = append(out, nf)
		} else {
			c.freePoly(negDst)
		}
		if f.Count+1 <= c.k-1 {
			pf := newFace(pos, f.Count+1)
			c.cachedArea += pf.area
			out = append(out, pf)
		} else {
			c.freePoly(pos)
		}
	}
	c.facesBuf = c.faces[:0]
	c.faces = out
	if changed {
		c.invalidate()
	}
	return changed
}

// ReplaceCut removes the cut with the given key (if any) and re-adds it
// with a refined line. Used by the LNR algorithm when a binary search
// produces a more precise estimate of an edge already discovered.
//
// The replacement is incremental: only the wedge of the bound where the
// old and new lines disagree about sidedness is re-derived. Face pieces
// outside the wedge keep their counts verbatim; the (thin) wedge pieces
// are rebuilt from scratch against the full cut set, which also
// restores any region the refined line hands back — no full-complex
// rebuild, whose cost LNR's per-refinement calls cannot afford.
func (c *Complex) ReplaceCut(cut Cut) {
	old, had := c.cuts[cut.Key]
	c.cuts[cut.Key] = cut.Line
	if !had {
		c.applyCut(cut.Line)
		return
	}
	if old == cut.Line {
		return
	}
	// The disagreement wedge, as two convex pieces of the bound:
	// retreat {old far, new near} (counts decrease there) and advance
	// {old near, new far} (counts increase there).
	retreat := c.bound.Clip(old.Flip().HalfPlane()).Clip(cut.Line.HalfPlane())
	advance := c.bound.Clip(old.HalfPlane()).Clip(cut.Line.Flip().HalfPlane())
	if retreat == nil && advance == nil {
		return // indistinguishable within the bound
	}
	c.invalidate()
	// Drop every face piece inside the wedge, keeping outside pieces
	// (whose counts are unaffected by the replacement) verbatim.
	out := c.facesBuf[:0]
	for _, f := range c.faces {
		out = c.keepOutsideWedge(out, f, old, cut.Line)
	}
	c.facesBuf = c.faces[:0]
	c.faces = out
	// Re-derive the wedge interior against the full (updated) cut set.
	c.rebuildWedge(retreat)
	c.rebuildWedge(advance)
}

// keepOutsideWedge appends to out the pieces of face f on which the old
// and new lines agree, discarding (and recycling) the wedge pieces.
// Faces are wholly on one side of every registered line by
// construction, so the common case is a single O(1) classification
// against the old line followed by one split against the new one.
func (c *Complex) keepOutsideWedge(out []Face, f Face, old, refined geom.Line) []Face {
	lo, hi := old.EvalRange(f.bbox)
	var farOld bool
	switch {
	case hi <= geom.Eps:
		farOld = false
	case lo >= -geom.Eps:
		farOld = true
	default:
		// Sliver-level ambiguity: resolve by majority of vertex evals.
		var s float64
		for _, p := range f.Poly {
			s += old.Eval(p)
		}
		farOld = s > 0
	}
	negDst, posDst := c.allocPoly(), c.allocPoly()
	neg, pos, crossed := f.Poly.SplitInto(refined, negDst, posDst)
	if !crossed {
		c.freePoly(negDst)
		c.freePoly(posDst)
		if (pos != nil) == farOld {
			return append(out, f) // sides agree: outside the wedge
		}
		c.cachedArea -= f.area
		c.freePoly(f.Poly)
		return out
	}
	keep, keepDst, dropDst := neg, negDst, posDst
	if farOld {
		keep, keepDst, dropDst = pos, posDst, negDst
	}
	c.cachedArea -= f.area
	c.freePoly(f.Poly)
	c.freePoly(dropDst)
	if keep != nil {
		kf := newFace(keep, f.Count)
		c.cachedArea += kf.area
		out = append(out, kf)
	} else {
		c.freePoly(keepDst)
	}
	return out
}

// rebuildWedge reconstructs the subdivision inside one convex wedge
// piece from the full registered cut set and splices the resulting
// region faces into the complex.
func (c *Complex) rebuildWedge(w geom.Polygon) {
	if len(w) < 3 || w.Area() < geom.Eps {
		return
	}
	// Clip can return the receiver unchanged; the sub-complex takes
	// ownership of its bound, so detach from c.bound in that case.
	if &w[0] == &c.bound[0] {
		w = w.Clone()
	}
	sub := &Complex{
		k:          c.k,
		bound:      w,
		cuts:       make(map[int64]geom.Line, len(c.cuts)),
		cachedArea: w.Area(),
	}
	sub.faces = []Face{newFace(w, 0)}
	for _, key := range c.CutKeys() {
		sub.AddCut(Cut{Line: c.cuts[key], Key: key})
	}
	for _, f := range sub.faces {
		c.faces = append(c.faces, f)
		c.cachedArea += f.area
	}
	c.invalidate()
}

// rebuild reconstructs the subdivision from the bound and the current
// cut set (kept as the reference implementation; the incremental paths
// are validated against it in tests).
func (c *Complex) rebuild() {
	cuts := c.cuts
	c.cuts = make(map[int64]geom.Line, len(cuts))
	f := newFace(c.bound.Clone(), 0)
	c.faces = []Face{f}
	c.cachedArea = f.area
	c.facesBuf = nil
	c.polyPool = nil
	c.invalidate()
	// Insert in sorted-key order for determinism.
	keys := make([]int64, 0, len(cuts))
	for k := range cuts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		c.AddCut(Cut{Line: cuts[k], Key: k})
	}
}

// Area returns the exact area of the region (faces with count ≤ k−1),
// maintained incrementally across cut operations.
func (c *Complex) Area() float64 {
	if c.cachedArea < 0 {
		return 0 // guard against accumulated float drift near empty
	}
	return c.cachedArea
}

// AreaAtMost returns the area of the sub-region with count ≤ h−1, i.e.
// the (tentative) top-h Voronoi cell for any h ≤ k. With cuts derived
// from a subset of the database this is exactly the λ_h upper bound of
// §3.2.3. AreaAtMost(k) == Area().
func (c *Complex) AreaAtMost(h int) float64 {
	if h >= c.k {
		return c.Area()
	}
	var a float64
	for i := range c.faces {
		if c.faces[i].Count <= h-1 {
			a += c.faces[i].area
		}
	}
	return a
}

// Contains reports whether p lies in the region. Points exactly on
// internal subdivision edges are resolved by direct counting against
// the cuts, which is unambiguous.
func (c *Complex) Contains(p geom.Point) bool {
	if !c.bound.Contains(p) {
		return false
	}
	count := 0
	for _, l := range c.cuts {
		if l.Eval(p) > geom.Eps {
			count++
			if count > c.k-1 {
				return false
			}
		}
	}
	return true
}

// CloserCount returns the number of cuts whose far side strictly
// contains p — i.e. how many of the registered opposing tuples are
// closer to p than the target is.
func (c *Complex) CloserCount(p geom.Point) int {
	count := 0
	for _, l := range c.cuts {
		if l.Eval(p) > geom.Eps {
			count++
		}
	}
	return count
}

// Faces returns the current faces. The returned slice and the face
// polygons share the complex's recycled storage: treat them as
// read-only and only valid until the next mutating call (AddCut,
// ReplaceCut, InsertSites, Reset).
func (c *Complex) Faces() []Face { return c.faces }

// Vertices returns the deduplicated vertex set of all faces of the
// region. This is a superset of the vertices of the region's outer
// boundary: internal subdivision vertices are included. For the
// Theorem-1 confirmation loop a superset is harmless — querying an
// interior vertex either confirms known tuples or reveals an unseen
// tuple, both of which keep the loop sound — it only costs extra
// queries (and is exactly what makes k>1 concavity handling uniform).
func (c *Complex) Vertices() []geom.Point {
	var pts []geom.Point
	for _, f := range c.faces {
		pts = append(pts, f.Poly...)
	}
	return dedupePoints(pts, 1e-7)
}

// BoundaryVertices returns only vertices lying on the outer boundary of
// the region (vertices where the region does not locally cover a full
// disk). A vertex is classified as internal when every incident face
// test point around it stays inside the region; we approximate this by
// probing 8 points on a tiny circle around the vertex.
func (c *Complex) BoundaryVertices() []geom.Point {
	verts := c.Vertices()
	scale := math.Sqrt(c.bound.Area()) * 1e-6
	if scale < geom.Eps {
		scale = geom.Eps
	}
	var out []geom.Point
	for _, v := range verts {
		inside := 0
		for i := 0; i < 8; i++ {
			ang := float64(i) * math.Pi / 4
			p := v.Add(geom.Pt(math.Cos(ang), math.Sin(ang)).Scale(scale))
			if c.Contains(p) {
				inside++
			}
		}
		if inside < 8 {
			out = append(out, v)
		}
	}
	return out
}

// RandomPoint returns a point uniformly distributed over the region:
// a face is chosen with probability proportional to its area and a
// point sampled uniformly inside it. It returns false when the region
// is empty.
func (c *Complex) RandomPoint(rng *rand.Rand) (geom.Point, bool) {
	total := c.Area()
	if total < geom.Eps {
		return geom.Point{}, false
	}
	target := rng.Float64() * total
	for i := range c.faces {
		f := &c.faces[i]
		if target < f.area {
			return geom.RandomInPolygon(rng, f.Poly), true
		}
		target -= f.area
	}
	// Floating point slack: fall back to the last face.
	last := c.faces[len(c.faces)-1]
	return geom.RandomInPolygon(rng, last.Poly), true
}

// MaxDistFrom returns the maximum distance from p to the region
// (attained at a face vertex). The answer is memoized for the last p
// until the faces change, so, unlike the other read-only methods, it
// must not run concurrently with any other call on the complex.
//
// Vertices are ranked by squared distance, and Hypot is taken only of
// those within a relative 1e-12 of the running maximum. That window is
// far wider than the few-ulp disagreement between the Dist2 and Hypot
// orderings, so the result equals the maximum of Hypot over all
// vertices exactly, at the price of a handful of Hypot calls.
func (c *Complex) MaxDistFrom(p geom.Point) float64 {
	if c.maxDistValid && c.maxDistFrom == p {
		return c.maxDist
	}
	var m2, m float64
	for i := range c.faces {
		for _, v := range c.faces[i].Poly {
			if d2 := p.Dist2(v); d2 >= m2*(1-1e-12) {
				if d2 > m2 {
					m2 = d2
				}
				if d := p.Dist(v); d > m {
					m = d
				}
			}
		}
	}
	c.maxDistValid, c.maxDistFrom, c.maxDist = true, p, m
	return m
}

// WithK returns a new complex over the same cuts restricted to top-h
// membership (h ≤ the receiver's k): the faces with count ≤ h−1. Used
// by the adaptive variance-reduction device (§3.2.3), which evaluates
// all candidate top-h cells from one history-derived top-k subdivision
// and then continues refinement at the chosen h.
func (c *Complex) WithK(h int) *Complex {
	if h >= c.k {
		return c.Clone()
	}
	if h < 1 {
		panic("cell: WithK h must be ≥ 1")
	}
	out := &Complex{
		k:     h,
		bound: c.bound.Clone(),
		cuts:  make(map[int64]geom.Line, len(c.cuts)),
	}
	for k, l := range c.cuts {
		out.cuts[k] = l
	}
	for _, f := range c.faces {
		if f.Count <= h-1 {
			nf := f
			nf.Poly = f.Poly.Clone()
			out.faces = append(out.faces, nf)
			out.cachedArea += nf.area
		}
	}
	return out
}

// Clone returns a deep copy of the complex (recycled-storage pools are
// not shared; the clone starts with empty ones).
func (c *Complex) Clone() *Complex {
	out := &Complex{
		k:          c.k,
		bound:      c.bound.Clone(),
		faces:      make([]Face, len(c.faces)),
		cuts:       make(map[int64]geom.Line, len(c.cuts)),
		cachedArea: c.cachedArea,
	}
	for i, f := range c.faces {
		out.faces[i] = f
		out.faces[i].Poly = f.Poly.Clone()
	}
	for k, l := range c.cuts {
		out.cuts[k] = l
	}
	return out
}

// dedupePoints removes near-duplicate points using a rounding grid of
// the given tolerance plus pairwise confirmation within each bucket.
func dedupePoints(pts []geom.Point, tol float64) []geom.Point {
	type key struct{ x, y int64 }
	seen := make(map[key][]geom.Point, len(pts))
	var out []geom.Point
	for _, p := range pts {
		// Check the 3×3 neighborhood of rounding buckets so points
		// straddling a bucket boundary still match.
		kx := int64(math.Floor(p.X / tol))
		ky := int64(math.Floor(p.Y / tol))
		dup := false
	outer:
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for _, q := range seen[key{kx + dx, ky + dy}] {
					if p.ApproxEq(q, tol) {
						dup = true
						break outer
					}
				}
			}
		}
		if !dup {
			seen[key{kx, ky}] = append(seen[key{kx, ky}], p)
			out = append(out, p)
		}
	}
	return out
}
