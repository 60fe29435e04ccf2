// Geodesic (great-circle) search over the same tree. The tree shape
// is metric-independent — it partitions raw coordinates — so the
// Haversine mode reuses the structure and only changes how candidate
// distances and splitting-plane lower bounds are computed:
//
//   - latitude planes (axis 1) bound the distance to the far subtree
//     by the pure latitude separation R·|Δφ| (hav ≥ sin²(Δφ/2));
//   - longitude planes (axis 0) bound it by the circular separation of
//     the query longitude from the far side's longitude interval
//     ([plane, maxX] or [minX, plane] — build-time extents), scaled by
//     √(cos φ_q · cos φ_floor) where φ_floor is the data set's extreme
//     latitude. A lune that wraps past the antimeridian or data beyond
//     the poles degrade the bound to 0 (never prune) — conservative,
//     never wrong.
//
// Both bounds are true lower bounds for every point in the pruned
// subtree (see geo.LatSepLB/LonSepLB), so the search is exact: pinned
// against brute force in geodesic_test.go. The Euclidean entry points
// in kdtree.go are deliberately untouched — metric dispatch happens
// here, and Euclidean callers keep their bit-identical fast path.
//
// # Haversine-domain node rejection
//
// A visited node pays at most the haversine hav (three trig calls);
// the asin and sqrt that turn it into km (geo.HavDist) run only when
// hav ≤ geo.HavBound(D), where D is the current admission distance:
// the heap top's distance once the heap holds k entries, maxDist while
// it fills. geo.HaversineQuery.HavWithin makes the comparison and
// rejects most far nodes on a trig-free lower bound of hav before
// computing it.
//
// The rejection is strict. HavBound guarantees
// hav > HavBound(D) ⇒ HavDist(hav) > D in floating point, so a
// rejected node's canonical distance d = HavDist(hav) satisfies d > D:
// it could neither pass d ≤ maxDist nor displace the heap top, which
// needs d < D, or d = D with a smaller index. Every node at exactly D
// — an equal-distance tie — lies at or under the threshold and takes
// the exact path. A pending subtree is skipped only when its lune
// bound exceeds D strictly. So results, distances and (Dist, Index)
// tie order are exactly those of a brute-force scan. The filter, too,
// runs only for nodes that can enter the heap; filters are pure
// predicates, so skipping the others changes nothing.
package kdtree

import (
	"sort"

	"repro/internal/geo"
	"repro/internal/geom"
)

// KNNWithinMetricInto is KNNWithinInto under an explicit metric.
// Euclidean delegates to the exact existing traversal (bit-identical
// results and allocation behavior); Haversine runs the geodesic
// traversal with conservative lune pruning. Neighbor.Dist is in the
// metric's unit (km for Haversine).
func (t *Tree) KNNWithinMetricInto(m geo.Metric, q geom.Point, k int, maxDist float64, filter func(int) bool, buf []Neighbor) []Neighbor {
	if m != geo.Haversine {
		return t.KNNWithinInto(q, k, maxDist, filter, buf)
	}
	return t.knnGeodesicInto(q, k, maxDist, filter, buf)
}

// WithinRadiusMetricInto is WithinRadiusInto under an explicit
// metric: all points within r of q, ordered by (distance, index).
func (t *Tree) WithinRadiusMetricInto(m geo.Metric, q geom.Point, r float64, filter func(int) bool, buf []Neighbor) []Neighbor {
	if m != geo.Haversine {
		return t.WithinRadiusInto(q, r, filter, buf)
	}
	out := t.WithinRadiusMetricUnordered(m, q, r, filter, buf)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Index < out[b].Index
	})
	return out
}

// WithinRadiusMetricUnordered is WithinRadiusUnordered under an
// explicit metric (results in tree-traversal order).
func (t *Tree) WithinRadiusMetricUnordered(m geo.Metric, q geom.Point, r float64, filter func(int) bool, buf []Neighbor) []Neighbor {
	if m != geo.Haversine {
		return t.WithinRadiusUnordered(q, r, filter, buf)
	}
	out := buf[:0]
	if len(t.nodes) == 0 || r < 0 {
		return out
	}
	hq := geo.NewHaversineQuery(q)
	cosFloor := geo.CosLatFloor(-t.maxAbsY, t.maxAbsY)
	t.withinGeo(0, q, hq, r, geo.HavBound(r), cosFloor, filter, &out)
	return out
}

// farBoundGeo computes, for the node at off with point p, the
// near/far children relative to q and a Haversine lower bound on the
// distance from q to every point of the far subtree.
func (t *Tree) farBoundGeo(n *node, p geom.Point, q geom.Point, hq geo.HaversineQuery, cosFloor float64) (near, far int32, lb float64) {
	near, far = n.left, n.right
	if n.axis == 0 {
		if q.X > p.X {
			near, far = far, near
			// Far side holds longitudes ≤ p.X.
			lb = geo.LonSepLB(q.X, hq.CosLat(), t.minX, p.X, cosFloor)
		} else {
			lb = geo.LonSepLB(q.X, hq.CosLat(), p.X, t.maxX, cosFloor)
		}
		return near, far, lb
	}
	if q.Y > p.Y {
		near, far = far, near
	}
	return near, far, geo.LatSepLB(q.Y, p.Y)
}

// knnGeodesicInto mirrors KNNWithinInto's iterative best-first
// traversal with Haversine distances and lune lower bounds in the
// pending-subtree frames, rejecting nodes in the haversine domain
// (see the package comment). Same buffer contract, same (Dist, Index)
// result order.
func (t *Tree) knnGeodesicInto(q geom.Point, k int, maxDist float64, filter func(int) bool, buf []Neighbor) []Neighbor {
	h := buf[:0]
	if k <= 0 || len(t.nodes) == 0 {
		return h
	}
	hq := geo.NewHaversineQuery(q)
	cosFloor := geo.CosLatFloor(-t.maxAbsY, t.maxAbsY)
	// thr is geo.HavBound of the admission distance: maxDist while the
	// heap fills, the heap top's distance once it is full.
	thr := geo.HavBound(maxDist)
	type frame struct {
		off int32
		lb  float64
	}
	var stack [maxTraversalDepth]frame
	top := 0
	off := int32(0)
	for {
		for off >= 0 {
			n := &t.nodes[off]
			p := t.pts[n.idx]
			if hav, ok := hq.HavWithin(p, thr); ok {
				nb := Neighbor{Index: n.idx, Dist: geo.HavDist(hav)}
				full := len(h) == k
				if nb.Dist <= maxDist && (!full || nbWorse(h[0], nb)) && (filter == nil || filter(n.idx)) {
					if full {
						h[0] = nb
						siftDownNb(h, 0)
					} else {
						h = append(h, nb)
						siftUpNb(h, len(h)-1)
					}
					if len(h) == k {
						thr = geo.HavBound(h[0].Dist)
					}
				}
			}
			near, far, lb := t.farBoundGeo(n, p, q, hq, cosFloor)
			if far >= 0 {
				stack[top] = frame{off: far, lb: lb}
				top++
			}
			off = near
		}
		off = -1
		for top > 0 {
			top--
			fr := stack[top]
			if fr.lb > maxDist {
				continue
			}
			// Strict: a subtree whose bound equals the heap top may
			// still hold a tie with a smaller index.
			if len(h) == k && fr.lb > h[0].Dist {
				continue
			}
			off = fr.off
			break
		}
		if off < 0 {
			break
		}
	}
	for i := len(h) - 1; i > 0; i-- {
		h[0], h[i] = h[i], h[0]
		siftDownNb(h[:i], 0)
	}
	return h
}

// withinGeo is the geodesic analogue of within: descend the near side
// unconditionally and the far side only when its lune lower bound
// stays within r. thr = geo.HavBound(r) rejects nodes in the
// haversine domain, as in knnGeodesicInto.
func (t *Tree) withinGeo(off int32, q geom.Point, hq geo.HaversineQuery, r, thr, cosFloor float64, filter func(int) bool, out *[]Neighbor) {
	if off < 0 {
		return
	}
	n := &t.nodes[off]
	p := t.pts[n.idx]
	if hav, ok := hq.HavWithin(p, thr); ok {
		if d := geo.HavDist(hav); d <= r && (filter == nil || filter(n.idx)) {
			*out = append(*out, Neighbor{Index: n.idx, Dist: d})
		}
	}
	near, far, lb := t.farBoundGeo(n, p, q, hq, cosFloor)
	t.withinGeo(near, q, hq, r, thr, cosFloor, filter, out)
	if lb <= r {
		t.withinGeo(far, q, hq, r, thr, cosFloor, filter, out)
	}
}
