package core

import (
	"math"

	"repro/internal/cell"
	"repro/internal/geom"
)

// History accumulates every tuple location an LR estimation run has
// observed, across all queries of all samples. Because the hidden
// database is static, past observations stay valid, and the history
// lets later Voronoi-cell computations start from a much tighter
// initial bounding region (the "leveraging history" device, §3.2.2)
// and provides the λ_h upper bounds for the adaptive top-h choice
// (§3.2.3) at zero query cost.
//
// The sightings are bucketed in a uniform grid over the estimation
// region, so both consumers are local searches: InsertInto feeds a
// cell the history in rings of doubling radius around its target, and
// CountCloser visits only the buckets under one disk. The grid halves
// its pitch whenever the mean bucket occupancy passes two; sightings
// outside the region fall into the border buckets.
type History struct {
	locs map[int64]geom.Point
	all  geom.Rect // bounding box of every sighting

	region  geom.Rect
	pitch   float64 // bucket side length
	nx, ny  int
	buckets []bucket

	batch []cell.Site // InsertInto's reusable ring batch
}

// bucket holds the sightings of one grid square and their bounding
// box. Border buckets also hold the sightings clamped into them, so
// the box, not the square, bounds their distances.
type bucket struct {
	sites []cell.Site
	box   geom.Rect
}

// NewHistory returns an empty history indexed over region.
func NewHistory(region geom.Rect) *History {
	pitch := max(region.Width(), region.Height())
	if !(pitch > 0) {
		pitch = 1 // degenerate region: everything shares one bucket
	}
	h := &History{locs: make(map[int64]geom.Point), region: region}
	h.setPitch(pitch)
	return h
}

// setPitch sizes the grid for the given bucket side and redistributes
// the sightings into it.
func (h *History) setPitch(pitch float64) {
	old := h.buckets
	h.pitch = pitch
	h.nx = max(1, int(math.Ceil(h.region.Width()/pitch)))
	h.ny = max(1, int(math.Ceil(h.region.Height()/pitch)))
	h.buckets = make([]bucket, h.nx*h.ny)
	for i := range old {
		for _, s := range old[i].sites {
			h.add(s)
		}
	}
}

// index maps a coordinate to its bucket column (or row) in [0, n):
// monotone in v, with everything beyond either edge clamped to it.
func index(v, origin, pitch float64, n int) int {
	f := (v - origin) / pitch
	if !(f >= 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// span returns the inclusive bucket column and row ranges that cover
// the disk of radius r around p. The disk is padded far beyond the
// rounding of p ± r, so no site within r of p is missed; the exact
// distance tests happen per bucket box and per site.
func (h *History) span(p geom.Point, r float64) (x0, x1, y0, y1 int) {
	px := r + 1e-12*(math.Abs(p.X)+r)
	py := r + 1e-12*(math.Abs(p.Y)+r)
	x0 = index(p.X-px, h.region.Min.X, h.pitch, h.nx)
	x1 = index(p.X+px, h.region.Min.X, h.pitch, h.nx)
	y0 = index(p.Y-py, h.region.Min.Y, h.pitch, h.ny)
	y1 = index(p.Y+py, h.region.Min.Y, h.pitch, h.ny)
	return
}

// add appends a site to its bucket.
func (h *History) add(s cell.Site) {
	b := &h.buckets[index(s.Loc.Y, h.region.Min.Y, h.pitch, h.ny)*h.nx+
		index(s.Loc.X, h.region.Min.X, h.pitch, h.nx)]
	if len(b.sites) == 0 {
		b.box = geom.Rect{Min: s.Loc, Max: s.Loc}
	} else {
		b.box = extend(b.box, s.Loc)
	}
	b.sites = append(b.sites, s)
}

// extend grows r to contain p.
func extend(r geom.Rect, p geom.Point) geom.Rect {
	r.Min.X, r.Max.X = min(r.Min.X, p.X), max(r.Max.X, p.X)
	r.Min.Y, r.Max.Y = min(r.Min.Y, p.Y), max(r.Max.Y, p.Y)
	return r
}

// Observe records a tuple sighting and reports whether it was new.
func (h *History) Observe(id int64, loc geom.Point) bool {
	if _, ok := h.locs[id]; ok {
		return false
	}
	h.locs[id] = loc
	if len(h.locs) == 1 {
		h.all = geom.Rect{Min: loc, Max: loc}
	} else {
		h.all = extend(h.all, loc)
	}
	h.add(cell.Site{Key: id, Loc: loc})
	if len(h.locs) > 2*len(h.buckets) {
		h.setPitch(h.pitch / 2)
	}
	return true
}

// Len returns the number of distinct tuples seen.
func (h *History) Len() int { return len(h.locs) }

// Loc returns the recorded location of a tuple.
func (h *History) Loc(id int64) (geom.Point, bool) {
	p, ok := h.locs[id]
	return p, ok
}

// minDist2 and maxDist2 bound the squared distance from p to any point
// of r. Both round the same subtractions Point.Dist2 does, and
// rounding is monotone, so a site inside r never falls outside the
// bounds as Dist2 computes it.
func minDist2(r geom.Rect, p geom.Point) float64 {
	var dx, dy float64
	if p.X < r.Min.X {
		dx = r.Min.X - p.X
	} else if p.X > r.Max.X {
		dx = p.X - r.Max.X
	}
	if p.Y < r.Min.Y {
		dy = r.Min.Y - p.Y
	} else if p.Y > r.Max.Y {
		dy = p.Y - r.Max.Y
	}
	return dx*dx + dy*dy
}

func maxDist2(r geom.Rect, p geom.Point) float64 {
	dx := max(math.Abs(r.Min.X-p.X), math.Abs(r.Max.X-p.X))
	dy := max(math.Abs(r.Min.Y-p.Y), math.Abs(r.Max.Y-p.Y))
	return dx*dx + dy*dy
}

// InsertInto inserts every observed tuple except excludeID into c as a
// bisector site of target, and returns the number of cuts that changed
// the region. Sites go to cell.InsertSites in rings lo² < d² ≤ r² of
// doubling radius r, starting at one bucket pitch; the rings partition
// the history by distance, so the cuts are added in exactly the order
// one InsertSites call over the whole history would add them. The
// search stops once r reaches InsertSites' own pruning reach
// (2·MaxDistFrom + Eps), beyond which no site can cut the region, or
// once the ring covers every sighting.
func (h *History) InsertInto(c *cell.Complex, target geom.Point, excludeID int64) int {
	if len(h.locs) == 0 {
		return 0
	}
	all := maxDist2(h.all, target)
	changed := 0
	lo2 := -1.0
	for r := h.pitch; ; r *= 2 {
		r2 := r * r
		batch := h.batch[:0]
		x0, x1, y0, y1 := h.span(target, r)
		for y := y0; y <= y1; y++ {
			row := h.buckets[y*h.nx+x0 : y*h.nx+x1+1]
			for i := range row {
				b := &row[i]
				if len(b.sites) == 0 || minDist2(b.box, target) > r2 || maxDist2(b.box, target) <= lo2 {
					continue
				}
				for _, s := range b.sites {
					if d2 := s.Loc.Dist2(target); d2 > lo2 && d2 <= r2 && s.Key != excludeID {
						batch = append(batch, s)
					}
				}
			}
		}
		h.batch = batch
		changed += cell.InsertSites(c, target, batch)
		if r2 >= all || r >= 2*c.MaxDistFrom(target)+geom.Eps {
			return changed
		}
		lo2 = r2
	}
}

// CountCloser returns how many observed tuples other than excludeID
// are strictly closer to p than target is, counting no further than
// limit+1: the result is min(count, limit+1). The lower-bound skip
// test of §3.2.4 asks only whether the count stays within h−1, to
// decide membership in the top-h cell without a query once disk
// coverage guarantees all relevant tuples have been observed. Only the
// buckets under the disk C(p, |p−t|) are visited.
func (h *History) CountCloser(p, target geom.Point, excludeID int64, limit int) int {
	dt := p.Dist2(target)
	n := 0
	x0, x1, y0, y1 := h.span(p, math.Sqrt(dt))
	for y := y0; y <= y1; y++ {
		row := h.buckets[y*h.nx+x0 : y*h.nx+x1+1]
		for i := range row {
			b := &row[i]
			if len(b.sites) == 0 || minDist2(b.box, p) >= dt {
				continue
			}
			for _, s := range b.sites {
				if s.Key != excludeID && p.Dist2(s.Loc) < dt {
					if n++; n > limit {
						return n
					}
				}
			}
		}
	}
	return n
}
