// Package geo makes the distance metric a first-class seam: every
// layer that ranks, prunes or invalidates by distance (kdtree, lbs,
// shard, the answer cache, the store) takes a Metric instead of
// hard-coding flat-Euclidean math, so city-scale scenarios can run on
// real lat/lon coordinates without pretending the earth is flat.
//
// Two metrics are provided:
//
//   - Euclidean: the planar default. Its Dist is exactly
//     math.Sqrt(p.Dist2(q)) — the k-d tree's ranking pipeline and the
//     merge key of lbs.RankDist — so code refactored onto the seam
//     stays bit-identical to the pre-metric behavior.
//   - Haversine: great-circle distance in kilometers over points
//     interpreted as degrees (X = longitude, Y = latitude). Latitudes
//     are clamped to [−90°, 90°] before evaluation, which makes every
//     pruning bound in this package valid for arbitrary query points;
//     longitudes wrap modulo 360° through the formula itself.
//
// # Domain assumptions (Haversine)
//
// Geodesic databases must keep their data inside a longitude window
// narrower than 180° and away from the poles (the synthetic geo
// scenarios span ~60° of longitude at mid latitudes). The search
// bounds remain *correct* outside that regime — they degrade to
// "never prune" rather than to wrong answers — but pruning
// effectiveness, and therefore performance, assumes it.
//
// # Local projection
//
// Projection is the documented planar approximation for cell
// geometry: an equirectangular projection at a reference latitude
// (x′ = R·cos φ₀·λ, y′ = R·φ). Voronoi/cell ground truth runs on this
// plane; MaxDistortion measures the worst-case relative distance
// error over a region so the approximation error is a number, not a
// hope (see the README error-bound table).
package geo

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// EarthRadiusKm is the mean earth radius (IUGG), in kilometers; all
// Haversine distances are in these units.
const EarthRadiusKm = 6371.0088

// KmPerDeg is the length of one degree of latitude (or of longitude
// at the equator): EarthRadiusKm·π/180 ≈ 111.195 km.
const KmPerDeg = EarthRadiusKm * math.Pi / 180

const degToRad = math.Pi / 180

// Metric selects the distance function of a service stack. The zero
// value is Euclidean, so every existing construction site keeps its
// exact pre-metric behavior by default.
type Metric uint8

const (
	// Euclidean is planar distance: Dist(p, q) = Sqrt(p.Dist2(q)).
	Euclidean Metric = iota
	// Haversine is great-circle distance in km over (lon°, lat°)
	// points.
	Haversine
)

// String returns the wire name of the metric ("euclidean",
// "haversine").
func (m Metric) String() string {
	if m == Haversine {
		return "haversine"
	}
	return "euclidean"
}

// ParseMetric parses a wire name. The empty string is Euclidean (the
// default everywhere); "geodesic" is accepted as an alias for
// "haversine".
func ParseMetric(s string) (Metric, error) {
	switch s {
	case "", "euclidean":
		return Euclidean, nil
	case "haversine", "geodesic":
		return Haversine, nil
	}
	return Euclidean, fmt.Errorf("geo: unknown metric %q (want euclidean|haversine)", s)
}

// clampLat clamps a latitude to [−90°, 90°]. Haversine evaluates the
// clamped coordinates, which keeps it a well-defined (pseudo-)metric
// for any plane point and keeps every pruning bound below valid.
func clampLat(deg float64) float64 {
	if deg > 90 {
		return 90
	}
	if deg < -90 {
		return -90
	}
	return deg
}

// Dist returns the distance from p to q under the metric. Euclidean
// is exactly math.Sqrt(p.Dist2(q)) — bit-identical to the k-d tree's
// ranking pipeline and to lbs.RankDist.
func (m Metric) Dist(p, q geom.Point) float64 {
	if m == Haversine {
		return NewHaversineQuery(p).Dist(q)
	}
	return math.Sqrt(p.Dist2(q))
}

// HaversineQuery caches the query-side trigonometry of a Haversine
// evaluation so search loops pay one Sincos per query instead of per
// candidate. Dist(b) computes the *canonical* Haversine expression —
// HaversineDist and Metric.Dist delegate to it — so every layer
// (tree ranking, wire records, federated merge) produces bit-identical
// distances for the same pair of points.
type HaversineQuery struct {
	lam, phi, cosPhi float64
}

// NewHaversineQuery prepares the query point q (lon°, lat°).
func NewHaversineQuery(q geom.Point) HaversineQuery {
	phi := clampLat(q.Y) * degToRad
	return HaversineQuery{lam: q.X * degToRad, phi: phi, cosPhi: math.Cos(phi)}
}

// CosLat returns cos of the query's clamped latitude (the query-side
// factor of the longitude pruning bound).
func (h HaversineQuery) CosLat() float64 { return h.cosPhi }

// Dist returns the great-circle distance from the query to b, in km:
// exactly HavDist(h.Hav(b)).
func (h HaversineQuery) Dist(b geom.Point) float64 {
	return HavDist(h.Hav(b))
}

// Hav returns the haversine of the central angle between the query
// and b, hav θ = sin²(Δφ/2) + cos φ₁·cos φ₂·sin²(Δλ/2), clamped to
// at most 1. It is the part of Dist that search loops must pay per
// candidate; HavDist (asin and sqrt) is only needed for candidates
// that survive a HavBound comparison.
func (h HaversineQuery) Hav(b geom.Point) float64 {
	phi2, x, y := h.halfDiffs(b)
	return h.hav(phi2, x, y)
}

// halfDiffs returns b's clamped latitude φ₂ and the half-angle
// differences x = (φ₂ − φ_q)/2 and y = (λ₂ − λ_q)/2, in radians.
func (h HaversineQuery) halfDiffs(b geom.Point) (phi2, x, y float64) {
	phi2 = clampLat(b.Y) * degToRad
	return phi2, (phi2 - h.phi) / 2, (b.X*degToRad - h.lam) / 2
}

// hav is the canonical haversine expression over halfDiffs.
func (h HaversineQuery) hav(phi2, x, y float64) float64 {
	sp := math.Sin(x)
	sl := math.Sin(y)
	hav := sp*sp + h.cosPhi*math.Cos(phi2)*(sl*sl)
	if hav > 1 {
		hav = 1
	}
	return hav
}

// HavWithin is Hav for search loops with a rejection threshold
// thr ≥ 0: it returns (Hav(b), true), bit for bit, when Hav(b) ≤ thr,
// and false whenever Hav(b) > thr (the first result is then
// unspecified).
//
// It first compares a trig-free lower bound of the haversine, built
// on the same arguments, against thr widened by havLBMargin. With
// x = Δφ/2, y = Δλ/2 and the point's latitude φ,
//
//	hav = sin²x + cos φ_q·cos φ·sin²y ≥ (|x| − |x|³/6)² + cos φ_q·(1 − φ²/2)·(|y| − |y|³/6)²,
//
// because sin s ≥ s − s³/6 ≥ 0 for 0 ≤ s ≤ √6 (|x| ≤ π/2 for clamped
// latitudes; the y term is used for |y| < 1.5 only) and
// cos φ ≥ 1 − φ²/2. The y term is also used only where
// 1 − φ²/2 > 1/4 (|φ| below about 70°), so no step of the polynomial
// cancels and it is accurate to about 1e-14 relative, while the
// canonical haversine sums non-negative terms to within a few ulps. A
// bound above thr·(1+havLBMargin) therefore proves the haversine is
// above thr, and the node is rejected without a sin or cos.
func (h HaversineQuery) HavWithin(b geom.Point, thr float64) (float64, bool) {
	phi2, x, y := h.halfDiffs(b)
	a := math.Abs(x)
	lx := a - a*a*a/6
	lb := lx * lx
	if c := math.Abs(y); c < 1.5 {
		if cl := 1 - phi2*phi2/2; cl > 0.25 {
			ly := c - c*c*c/6
			lb += h.cosPhi * cl * (ly * ly)
		}
	}
	if lb > thr*(1+havLBMargin) {
		return 0, false
	}
	hav := h.hav(phi2, x, y)
	return hav, hav <= thr
}

// havLBMargin is HavWithin's relative slack between its polynomial
// lower bound and the threshold: a thousand times the bound's own
// rounding error.
const havLBMargin = 1e-12

// HavDist converts a haversine (see Hav) to km: 2R·asin(√hav).
func HavDist(hav float64) float64 {
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(hav))
}

// havMargin is HavBound's relative slack. Every floating-point step
// between a haversine and its distance (sin², sqrt, asin, the final
// scaling) is accurate to a few ulps, about 1e-15 relative, while the
// margin moves the threshold by 1e-9 relative — six orders of
// magnitude more than any rounding can take back.
const havMargin = 1e-9

// HavBound returns a haversine threshold for the distance d: every
// hav > HavBound(d) has HavDist(hav) > d, strictly and as computed in
// floating point. It is sin²(d/2R) — the exact inverse of HavDist —
// widened by havMargin, plus 1e-300 so that d = 0 and distances whose
// square would underflow keep a threshold of full precision. Search
// loops compare a candidate's Hav against it and skip the asin/sqrt
// of every candidate that is provably farther than d; a haversine
// at or below the threshold (every exact tie with d included) takes
// the exact path. Beyond half the circumference (and for NaN) it is
// +Inf: nothing is rejected.
func HavBound(d float64) float64 {
	if !(d < math.Pi*EarthRadiusKm) {
		return math.Inf(1)
	}
	s := math.Sin(d / (2 * EarthRadiusKm))
	return s*s*(1+havMargin) + 1e-300
}

// HaversineDist is the great-circle distance between two (lon°, lat°)
// points in km — the one canonical evaluation (see HaversineQuery).
func HaversineDist(a, b geom.Point) float64 {
	return NewHaversineQuery(a).Dist(b)
}

// LatSepLB lower-bounds the Haversine distance between any two points
// whose (clamped) latitudes differ by at least |qLat − lat| degrees:
// hav ≥ sin²(Δφ/2), so d ≥ 2R·asin(|sin(Δφ/2)|) = R·|Δφ| for clamped
// latitudes (|Δφ| ≤ 180°). Used as the splitting-plane bound on the
// latitude axis.
func LatSepLB(qLat, lat float64) float64 {
	return EarthRadiusKm * math.Abs(clampLat(qLat)-clampLat(lat)) * degToRad
}

// LonSepDeg returns the circular separation (degrees, in [0, 180])
// between longitude q and the longitude interval [lo, hi]: 0 when q
// falls inside the interval modulo 360°, else the shorter arc to the
// nearer endpoint.
func LonSepDeg(q, lo, hi float64) float64 {
	if hi-lo >= 360 {
		return 0
	}
	w := math.Mod(q-lo, 360)
	if w < 0 {
		w += 360
	}
	// w is q's offset into [lo, lo+360).
	if w <= hi-lo {
		return 0
	}
	return math.Min(w-(hi-lo), 360-w)
}

// LonSepLB lower-bounds the Haversine distance from a query (with
// cosQLat = cos of its clamped latitude) to any point whose longitude
// lies in [loLon, hiLon] and whose clamped latitude satisfies
// cos φ ≥ cosLatFloor: hav ≥ cos φ_q·cos φ·sin²(Δλ/2) and
// asin(x) ≥ x, so d ≥ 2R·√(cos φ_q·cosLatFloor)·sin(sep/2). A
// non-positive cosine product yields 0 (never prunes) — the graceful
// degradation for polar or out-of-domain data.
func LonSepLB(qLon, cosQLat, loLon, hiLon, cosLatFloor float64) float64 {
	c := cosQLat * cosLatFloor
	if c <= 0 {
		return 0
	}
	sep := LonSepDeg(qLon, loLon, hiLon)
	if sep <= 0 {
		return 0
	}
	return 2 * EarthRadiusKm * math.Sqrt(c) * math.Sin(sep/2*degToRad)
}

// CosLatFloor returns the minimum of cos over the clamped latitude
// interval [latMin, latMax] — the data-side factor of LonSepLB. For a
// k-d tree it is called with ±maxAbsLat; for a shard region with the
// region's latitude extent.
func CosLatFloor(latMin, latMax float64) float64 {
	a := math.Max(math.Abs(clampLat(latMin)), math.Abs(clampLat(latMax)))
	return math.Cos(a * degToRad)
}

// RectMinDist lower-bounds the distance from q to every point of
// rect. Euclidean is exact — math.Sqrt(q.Dist2(rect.Clamp(q))), the
// same Dist2+Sqrt pipeline the k-d tree ranks with, so monotonicity
// arguments over pruning decisions carry over unchanged. Haversine
// returns the larger of the latitude-separation and
// longitude-separation bounds; it is conservative (a true lower
// bound, possibly loose), which is the correct direction for
// scatter-gather pruning: a shard is skipped only when no tuple in
// its region can beat the bound.
func (m Metric) RectMinDist(q geom.Point, rect geom.Rect) float64 {
	if m != Haversine {
		return math.Sqrt(q.Dist2(rect.Clamp(q)))
	}
	latLB := 0.0
	qLat := clampLat(q.Y)
	if qLat < clampLat(rect.Min.Y) {
		latLB = LatSepLB(qLat, rect.Min.Y)
	} else if qLat > clampLat(rect.Max.Y) {
		latLB = LatSepLB(qLat, rect.Max.Y)
	}
	cosQ := math.Cos(qLat * degToRad)
	lonLB := LonSepLB(q.X, cosQ, rect.Min.X, rect.Max.X, CosLatFloor(rect.Min.Y, rect.Max.Y))
	return math.Max(latLB, lonLB)
}

// ExpandRect grows rect so that it contains every point within dist
// of rect under the metric. Euclidean is exactly rect.Expand(dist).
// Haversine converts the margin to degrees conservatively: latitude
// by km-per-degree, longitude by km-per-degree scaled by the cosine
// of the *expanded* rectangle's extreme latitude — over-covering at
// high latitude, which is the safe direction for cache invalidation
// (a dirty region may only grow). Near the poles the longitude
// margin degenerates to the full circle.
func (m Metric) ExpandRect(rect geom.Rect, dist float64) geom.Rect {
	if m != Haversine {
		return rect.Expand(dist)
	}
	if dist <= 0 {
		return rect
	}
	latMargin := dist / KmPerDeg
	out := rect
	out.Min.Y -= latMargin
	out.Max.Y += latMargin
	cos := CosLatFloor(out.Min.Y, out.Max.Y)
	lonMargin := 360.0
	if cos*KmPerDeg > 1e-12 {
		lonMargin = math.Min(360, dist/(KmPerDeg*cos))
	}
	out.Min.X -= lonMargin
	out.Max.X += lonMargin
	return out
}

// CellPitch returns the per-axis coordinate pitch of an answer-cache
// quantization cell whose target size is quantum (km under Haversine,
// plane units under Euclidean). Haversine cells are quantum/KmPerDeg
// degrees on both axes: exactly quantum km tall, and at most quantum
// km wide (longitude degrees shrink with latitude) — conservative for
// hit-sharing at high latitude, never the reverse.
func (m Metric) CellPitch(quantum float64) (px, py float64) {
	if m != Haversine {
		return quantum, quantum
	}
	return quantum / KmPerDeg, quantum / KmPerDeg
}

// Projection is the equirectangular local projection at a reference
// latitude φ₀: Forward maps (lon°, lat°) to kilometers on a plane via
// x′ = R·cos φ₀·λ_rad, y′ = R·φ_rad. It is the documented planar
// approximation for cell geometry in geodesic mode — Voronoi/cell
// ground truth runs on the projected plane, and MaxDistortion
// measures how far its planar distances stray from true great-circle
// distances over a given region.
type Projection struct {
	refLat float64 // degrees
	cosRef float64
}

// NewProjection returns the equirectangular projection centered at
// refLat degrees (typically the midpoint latitude of the region of
// interest).
func NewProjection(refLat float64) Projection {
	return Projection{refLat: clampLat(refLat), cosRef: math.Cos(clampLat(refLat) * degToRad)}
}

// RefLat returns the reference latitude in degrees.
func (p Projection) RefLat() float64 { return p.refLat }

// Forward maps a (lon°, lat°) point to the projected km plane.
func (p Projection) Forward(pt geom.Point) geom.Point {
	return geom.Pt(EarthRadiusKm*p.cosRef*pt.X*degToRad, EarthRadiusKm*pt.Y*degToRad)
}

// Inverse maps a projected km-plane point back to (lon°, lat°).
func (p Projection) Inverse(pt geom.Point) geom.Point {
	return geom.Pt(pt.X/(EarthRadiusKm*p.cosRef*degToRad), pt.Y/(EarthRadiusKm*degToRad))
}

// ForwardRect maps a degree-space rectangle to the projected plane.
func (p Projection) ForwardRect(r geom.Rect) geom.Rect {
	return geom.Rect{Min: p.Forward(r.Min), Max: p.Forward(r.Max)}
}

// MaxDistortion measures the worst relative error
// |planar − haversine| / haversine over `samples` deterministic
// point pairs drawn inside region (degree space) whose true distance
// is positive. It is how the README's projected-plane error-bound
// table is produced: the approximation error of running cell geometry
// on the projection is measured, not assumed.
func (p Projection) MaxDistortion(region geom.Rect, samples int, seed int64) float64 {
	// A tiny deterministic xorshift generator keeps this free of
	// math/rand churn across Go versions.
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state>>11) / float64(1<<53)
	}
	randPt := func() geom.Point {
		return geom.Pt(
			region.Min.X+next()*(region.Max.X-region.Min.X),
			region.Min.Y+next()*(region.Max.Y-region.Min.Y),
		)
	}
	worst := 0.0
	for i := 0; i < samples; i++ {
		a, b := randPt(), randPt()
		truth := HaversineDist(a, b)
		if truth < 1e-9 {
			continue
		}
		planar := math.Sqrt(p.Forward(a).Dist2(p.Forward(b)))
		if rel := math.Abs(planar-truth) / truth; rel > worst {
			worst = rel
		}
	}
	return worst
}
