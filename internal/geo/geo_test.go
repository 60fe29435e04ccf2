package geo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// samplePoints draws n deterministic lat/lon points inside a region.
func samplePoints(r *rand.Rand, region geom.Rect, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			region.Min.X+r.Float64()*(region.Max.X-region.Min.X),
			region.Min.Y+r.Float64()*(region.Max.Y-region.Min.Y),
		)
	}
	return pts
}

var axiomRegion = geom.NewRect(geom.Pt(-170, -80), geom.Pt(170, 80))

// TestMetricAxioms checks identity, symmetry, non-negativity and the
// triangle inequality for both metrics on sampled point sets.
// Symmetry must hold bit-for-bit (the federation merge recomputes
// distances from the other endpoint); the triangle inequality gets a
// small floating-point allowance.
func TestMetricAxioms(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := samplePoints(r, axiomRegion, 120)
	for _, m := range []Metric{Euclidean, Haversine} {
		for _, p := range pts {
			if d := m.Dist(p, p); d != 0 {
				t.Fatalf("%v: Dist(p,p) = %g, want 0", m, d)
			}
		}
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				a, b := pts[i], pts[j]
				dab, dba := m.Dist(a, b), m.Dist(b, a)
				if dab != dba {
					t.Fatalf("%v: asymmetric: d(a,b)=%v d(b,a)=%v", m, dab, dba)
				}
				if dab < 0 {
					t.Fatalf("%v: negative distance %v", m, dab)
				}
				if a != b && dab == 0 {
					// Distinct sampled points must not collide (the
					// region avoids the poles and the antimeridian).
					t.Fatalf("%v: d=0 for distinct points %v %v", m, a, b)
				}
			}
		}
		// Triangle inequality over sampled triples.
		for k := 0; k < 4000; k++ {
			a := pts[r.Intn(len(pts))]
			b := pts[r.Intn(len(pts))]
			c := pts[r.Intn(len(pts))]
			dac, dab, dbc := m.Dist(a, c), m.Dist(a, b), m.Dist(b, c)
			if dac > dab+dbc+1e-9*(1+dac) {
				t.Fatalf("%v: triangle violated: d(a,c)=%v > %v + %v", m, dac, dab, dbc)
			}
		}
	}
}

// TestHaversineAntipodalAndClamp exercises the degenerate corners:
// antipodal points cap at half the circumference, and latitudes
// outside [-90, 90] (planar data queried geodesically) clamp instead
// of wrapping.
func TestHaversineAntipodalAndClamp(t *testing.T) {
	half := math.Pi * EarthRadiusKm
	if d := HaversineDist(geom.Pt(0, 0), geom.Pt(180, 0)); math.Abs(d-half) > 1e-6 {
		t.Fatalf("antipodal distance %v, want %v", d, half)
	}
	// Clamped: lat 95 behaves as lat 90.
	if d1, d2 := HaversineDist(geom.Pt(0, 95), geom.Pt(10, 40)), HaversineDist(geom.Pt(0, 90), geom.Pt(10, 40)); d1 != d2 {
		t.Fatalf("lat clamp: d(95°)=%v d(90°)=%v", d1, d2)
	}
	// Longitude wraps: λ and λ+360 are the same meridian.
	if d1, d2 := HaversineDist(geom.Pt(-170, 10), geom.Pt(175, 20)), HaversineDist(geom.Pt(190, 10), geom.Pt(175, 20)); math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("lon wrap: %v vs %v", d1, d2)
	}
}

// TestEuclideanDistBitIdentical pins the Euclidean metric to the
// exact expression the ranking pipeline has always used.
func TestEuclideanDistBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		a := geom.Pt(r.NormFloat64()*100, r.NormFloat64()*100)
		b := geom.Pt(r.NormFloat64()*100, r.NormFloat64()*100)
		if got, want := Euclidean.Dist(a, b), math.Sqrt(a.Dist2(b)); got != want {
			t.Fatalf("Euclidean.Dist = %v, want Sqrt(Dist2) = %v", got, want)
		}
	}
}

// TestHaversineSmallScaleConvergence: at small separations the
// great-circle distance converges to the local equirectangular
// (latitude-scaled Euclidean) distance. 1 km offsets at mid latitude
// must agree to within 0.01% relative error.
func TestHaversineSmallScaleConvergence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		lat := -60 + r.Float64()*120
		lon := -170 + r.Float64()*340
		a := geom.Pt(lon, lat)
		// Offset up to ~1 km in each axis.
		dLat := (r.Float64()*2 - 1) / KmPerDeg
		dLon := (r.Float64()*2 - 1) / (KmPerDeg * math.Cos(lat*math.Pi/180))
		b := geom.Pt(lon+dLon, lat+dLat)
		hav := HaversineDist(a, b)
		proj := NewProjection(lat)
		planar := math.Sqrt(proj.Forward(a).Dist2(proj.Forward(b)))
		if hav < 1e-6 {
			continue
		}
		if rel := math.Abs(hav-planar) / hav; rel > 1e-4 {
			t.Fatalf("small-scale divergence %.2e at lat=%v (hav=%v planar=%v)", rel, lat, hav, planar)
		}
	}
}

// TestLonSepDeg pins the circular interval separation.
func TestLonSepDeg(t *testing.T) {
	cases := []struct {
		q, lo, hi, want float64
	}{
		{5, 0, 10, 0},      // inside
		{15, 0, 10, 5},     // right of interval
		{-3, 0, 10, 3},     // left of interval
		{355, 0, 10, 5},    // wraps to the lo side
		{185, 0, 10, 175},  // far side, nearer hi going backwards? min(175, 175)
		{0, -180, 180, 0},  // full circle
		{90, 170, 190, 80}, // interval crossing the antimeridian
	}
	for _, c := range cases {
		if got := LonSepDeg(c.q, c.lo, c.hi); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("LonSepDeg(%v, [%v,%v]) = %v, want %v", c.q, c.lo, c.hi, got, c.want)
		}
	}
	// Property: separation to a sub-interval is >= separation to the
	// full interval (supersets only shrink the bound — the direction
	// pruning relies on).
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		lo := r.Float64()*360 - 180
		hi := lo + r.Float64()*350
		q := r.Float64()*720 - 360
		mid := lo + r.Float64()*(hi-lo)
		if LonSepDeg(q, lo, hi) > LonSepDeg(q, mid, hi)+1e-9 {
			t.Fatalf("superset separation larger: q=%v [%v,%v] vs [%v,%v]", q, lo, hi, mid, hi)
		}
	}
}

// TestHaversineLowerBounds verifies that the pruning primitives are
// true lower bounds: for random queries and random points, the
// latitude-separation and longitude-separation bounds never exceed
// the actual distance.
func TestHaversineLowerBounds(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	// Include out-of-range latitudes to exercise the clamping path.
	region := geom.NewRect(geom.Pt(-200, -100), geom.Pt(200, 100))
	pts := samplePoints(r, region, 200)
	for i := 0; i < len(pts); i++ {
		for j := 0; j < len(pts); j++ {
			q, p := pts[i], pts[j]
			d := HaversineDist(q, p)
			if lb := LatSepLB(q.Y, p.Y); lb > d+1e-9 {
				t.Fatalf("LatSepLB %v > dist %v (q=%v p=%v)", lb, d, q, p)
			}
			cosQ := math.Cos(clampLat(q.Y) * degToRad)
			floor := CosLatFloor(p.Y, p.Y)
			if lb := LonSepLB(q.X, cosQ, p.X, p.X, floor); lb > d+1e-9 {
				t.Fatalf("LonSepLB %v > dist %v (q=%v p=%v)", lb, d, q, p)
			}
		}
	}
}

// TestHavDomainProperties pins the haversine-domain split of the
// canonical Haversine evaluation that search loops prune with:
//   - Dist == HavDist(Hav) bit for bit, HavWithin agrees with Hav and
//     with the threshold comparison (thresholds within 1e-13 of the
//     haversine included, where its polynomial pre-check must not
//     fire), and no exact distance is ever above its own bound (ties
//     are never rejected);
//   - hav > HavBound(d) ⇒ HavDist(hav) > d for d = 0, for tiny d,
//     for random d in (0, πR) over twelve decades, and for d near
//     antipodal, probing the haversines just above the bound.
func TestHavDomainProperties(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	// Out-of-range latitudes exercise the clamping path.
	pts := samplePoints(r, geom.NewRect(geom.Pt(-200, -100), geom.Pt(200, 100)), 150)
	pts = append(pts, pts[0], geom.Pt(pts[1].X+180, -pts[1].Y)) // a duplicate and an antipode
	// Near neighbors at every scale from 1e-7° to 1°, where the
	// polynomial bound of HavWithin is tightest.
	for i := 0; i < 40; i++ {
		scale := math.Pow(10, -7*r.Float64())
		pts = append(pts, geom.Pt(pts[i].X+scale*r.NormFloat64(), pts[i].Y+scale*r.NormFloat64()))
	}
	for _, q := range pts {
		hq := NewHaversineQuery(q)
		for _, p := range pts {
			hav, d := hq.Hav(p), hq.Dist(p)
			if d != HavDist(hav) || d != HaversineDist(q, p) {
				t.Fatalf("q=%v p=%v: Dist %v, HavDist(Hav) %v, HaversineDist %v", q, p, d, HavDist(hav), HaversineDist(q, p))
			}
			if hav > HavBound(d) {
				t.Fatalf("q=%v p=%v: hav %v above HavBound of its own distance %v", q, p, hav, HavBound(d))
			}
			for _, thr := range []float64{hav, math.Nextafter(hav, -1), hav * (1 - 1e-13), hav * (1 + 1e-13),
				HavBound(d), hav / 2, 0, 1, math.Inf(1)} {
				got, ok := hq.HavWithin(p, thr)
				if ok != (hav <= thr) || (ok && got != hav) {
					t.Fatalf("q=%v p=%v thr=%v: HavWithin (%v, %v), Hav %v", q, p, thr, got, ok, hav)
				}
			}
		}
	}
	piR := math.Pi * EarthRadiusKm
	ds := []float64{0, 5e-324, 1e-300, 1e-160, 1e-12, 1e-6,
		piR * (1 - 1e-6), piR * (1 - 1e-9), piR * (1 - 1e-12), math.Nextafter(piR, 0)}
	for i := 0; i < 20000; i++ {
		ds = append(ds, piR*math.Pow(10, -12*r.Float64()), piR*r.Float64())
	}
	for _, d := range ds {
		thr := HavBound(d)
		if thr >= 1 {
			continue // no haversine exceeds it
		}
		for _, h := range []float64{math.Nextafter(thr, 2), thr * (1 + 1e-12), thr + (1-thr)*r.Float64(), 1} {
			if h > thr && h <= 1 && !(HavDist(h) > d) {
				t.Fatalf("d=%v: hav %v > HavBound %v but HavDist %v ≤ d", d, h, thr, HavDist(h))
			}
		}
	}
	// The bound stays tight enough to prune: within 2e-9 of sin²(d/2R).
	for _, d := range []float64{1, 150, 5000} {
		s := math.Sin(d / (2 * EarthRadiusKm))
		if rel := HavBound(d)/(s*s) - 1; rel > 2e-9 {
			t.Fatalf("HavBound(%v) is %v above sin²(d/2R)", d, rel)
		}
	}
}

// TestRectMinDist verifies conservativeness for both metrics: the
// bound never exceeds the distance to any sampled point inside the
// rectangle, and Euclidean matches the historical clamp expression
// exactly.
func TestRectMinDist(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		rect := geom.NewRect(
			geom.Pt(r.Float64()*300-150, r.Float64()*150-75),
			geom.Pt(r.Float64()*300-150, r.Float64()*150-75),
		)
		q := geom.Pt(r.Float64()*720-360, r.Float64()*200-100)
		inside := samplePoints(r, rect, 40)
		for _, m := range []Metric{Euclidean, Haversine} {
			lb := m.RectMinDist(q, rect)
			for _, p := range inside {
				if d := m.Dist(q, p); lb > d+1e-9 {
					t.Fatalf("%v: RectMinDist %v > dist %v (q=%v p=%v rect=%+v)", m, lb, d, q, p, rect)
				}
			}
		}
		if got, want := Euclidean.RectMinDist(q, rect), math.Sqrt(q.Dist2(rect.Clamp(q))); got != want {
			t.Fatalf("Euclidean RectMinDist = %v, want clamp expression %v", got, want)
		}
	}
}

// TestExpandRect verifies the covering property: every point within
// dist of the original rectangle lands inside the expanded one.
func TestExpandRect(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		rect := geom.NewRect(
			geom.Pt(r.Float64()*100-50, r.Float64()*120-60),
			geom.Pt(r.Float64()*100-50, r.Float64()*120-60),
		)
		dist := r.Float64() * 200 // km under Haversine
		for _, m := range []Metric{Euclidean, Haversine} {
			grown := m.ExpandRect(rect, dist)
			// Sample points near the rect; any within dist of a rect
			// point must be contained.
			for i := 0; i < 60; i++ {
				base := geom.Pt(
					rect.Min.X+r.Float64()*(rect.Max.X-rect.Min.X),
					rect.Min.Y+r.Float64()*(rect.Max.Y-rect.Min.Y),
				)
				probe := geom.Pt(base.X+(r.Float64()*8-4), base.Y+(r.Float64()*8-4))
				if m.Dist(base, probe) <= dist && !grown.Contains(probe) {
					t.Fatalf("%v: probe %v within %v of %v not covered by %+v", m, probe, dist, base, grown)
				}
			}
		}
		if got, want := Euclidean.ExpandRect(rect, dist), rect.Expand(dist); got != want {
			t.Fatalf("Euclidean ExpandRect = %+v, want Expand %+v", got, want)
		}
	}
}

// TestCellPitch pins the cache quantization pitches: Euclidean is the
// quantum itself on both axes; Haversine cells are quantum km of
// latitude and at most quantum km of longitude.
func TestCellPitch(t *testing.T) {
	px, py := Euclidean.CellPitch(2.5)
	if px != 2.5 || py != 2.5 {
		t.Fatalf("Euclidean pitch = %v,%v", px, py)
	}
	px, py = Haversine.CellPitch(2.5)
	if math.Abs(py*KmPerDeg-2.5) > 1e-12 {
		t.Fatalf("Haversine lat pitch = %v deg (%v km)", py, py*KmPerDeg)
	}
	// Lon cell width in km at latitude φ is px·KmPerDeg·cosφ ≤ quantum.
	for _, lat := range []float64{0, 30, 60, 85} {
		if w := px * KmPerDeg * math.Cos(lat*math.Pi/180); w > 2.5+1e-12 {
			t.Fatalf("lon cell %v km wide at lat %v", w, lat)
		}
	}
}

// TestParseMetric pins the wire names.
func TestParseMetric(t *testing.T) {
	for s, want := range map[string]Metric{
		"": Euclidean, "euclidean": Euclidean, "haversine": Haversine, "geodesic": Haversine,
	} {
		got, err := ParseMetric(s)
		if err != nil || got != want {
			t.Fatalf("ParseMetric(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMetric("manhattan"); err == nil {
		t.Fatal("ParseMetric accepted an unknown name")
	}
	if Euclidean.String() != "euclidean" || Haversine.String() != "haversine" {
		t.Fatal("String() names drifted")
	}
}

// TestProjectionRoundTrip: Forward∘Inverse is identity to float
// precision.
func TestProjectionRoundTrip(t *testing.T) {
	proj := NewProjection(40)
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		p := geom.Pt(r.Float64()*360-180, r.Float64()*180-90)
		back := proj.Inverse(proj.Forward(p))
		if math.Abs(back.X-p.X) > 1e-9 || math.Abs(back.Y-p.Y) > 1e-9 {
			t.Fatalf("round trip %v -> %v", p, back)
		}
	}
}

// TestProjectionErrorBounds pins the projected-plane error-bound
// table documented in the README: the worst relative distance error
// of the equirectangular projection, measured over square metro-scale
// regions centered at the reference latitude. These are the error
// budgets under which cell/voronoi ground truth runs in geodesic
// mode; if the projection changes, this pin and the README table move
// together.
func TestProjectionErrorBounds(t *testing.T) {
	cases := []struct {
		lat, sideKm, maxRel float64
	}{
		{25, 50, 2.0e-3},
		{25, 200, 8.0e-3},
		{40, 50, 3.5e-3},
		{40, 200, 1.4e-2},
		{60, 50, 7.0e-3},
		{60, 200, 2.9e-2},
	}
	for _, c := range cases {
		proj := NewProjection(c.lat)
		halfLat := c.sideKm / 2 / KmPerDeg
		halfLon := c.sideKm / 2 / (KmPerDeg * math.Cos(c.lat*math.Pi/180))
		region := geom.NewRect(geom.Pt(-halfLon, c.lat-halfLat), geom.Pt(halfLon, c.lat+halfLat))
		got := proj.MaxDistortion(region, 4000, 1)
		if got > c.maxRel {
			t.Errorf("lat %v side %v km: distortion %.2e exceeds documented bound %.0e", c.lat, c.sideKm, got, c.maxRel)
		}
		if got == 0 {
			t.Errorf("lat %v side %v km: distortion 0 — sampler broken", c.lat, c.sideKm)
		}
	}
}
