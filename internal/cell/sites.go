package cell

import (
	"math"
	"sync"

	"repro/internal/geom"
)

// Site pairs a tuple identifier with its known location. Used when
// locations are available (LR-LBS interfaces and ground-truth
// computation).
type Site struct {
	Key int64
	Loc geom.Point
}

// BuildFromSites constructs the top-k cell of a target located at
// target with respect to the given sites (which must not include the
// target itself), over the given bounding polygon.
//
// Sites are processed in order of increasing distance from the target
// so that the standard pruning rule applies: a site s can affect the
// region only if some region point p is closer to s than to the target,
// which requires d(target, s) < 2·max_p d(target, p); once the sorted
// distance exceeds twice the current maximum region distance, no later
// site can cut the region and insertion stops. The rule is valid for
// any k because it bounds where the bisector B(target, s) can reach.
func BuildFromSites(bound geom.Polygon, k int, target geom.Point, sites []Site) *Complex {
	c := New(bound, k)
	InsertSites(c, target, sites)
	return c
}

// siteDist is one filtered batch entry with its precomputed squared
// distance, so the sort comparator does no arithmetic.
type siteDist struct {
	site Site
	d2   float64
}

// insertScratch is the reusable per-call working set of InsertSites.
// Pooled package-wide (not per complex) so one-shot BuildFromSites
// callers reach steady state too; sync.Pool keeps concurrent estimator
// workers from contending.
type insertScratch struct {
	ordered []siteDist
}

var insertPool = sync.Pool{New: func() any { return new(insertScratch) }}

// InsertSites adds bisector cuts between target and each site into an
// existing complex, using the distance-ordered pruning rule described
// at BuildFromSites. Sites whose Key is already registered or that
// coincide with the target within Eps are filtered out up front;
// duplicate keys within the batch itself are eliminated during the
// distance-ordered consumption: identical duplicates pop from the
// distance heap back-to-back (equal distance, equal key) and are
// skipped in O(1), and any exotic same-key stragglers are absorbed by
// AddCut's own key registry. No per-batch map is built — hashing every
// site cost more than the duplicates it saved (ground-truth ring
// gathering calls this with thousands of small, dup-free batches).
// The working set comes from a package-level pool and is reused across
// calls. It returns the number of cuts that changed the region.
func InsertSites(c *Complex, target geom.Point, sites []Site) int {
	sc := insertPool.Get().(*insertScratch)
	ordered := sc.ordered[:0]
	for _, s := range sites {
		d2 := s.Loc.Dist2(target)
		if d2 < geom.Eps*geom.Eps || c.HasCut(s.Key) {
			continue
		}
		ordered = append(ordered, siteDist{site: s, d2: d2})
	}
	// Lazy distance ordering: the pruning rule usually stops after the
	// nearest handful of sites, so a heapify + pop loop beats a full
	// sort of the batch (O(n + m log n) for m consumed sites).
	heapifySites(ordered)
	changed := 0
	maxDist := c.MaxDistFrom(target)
	lastKey := int64(math.MinInt64)
	for n := len(ordered); n > 0; n-- {
		sd := ordered[0]
		reach := 2*maxDist + geom.Eps
		if sd.d2 > reach*reach {
			break
		}
		ordered[0] = ordered[n-1]
		siftDownSite(ordered[:n-1], 0)
		if sd.site.Key == lastKey {
			continue // in-batch duplicate: identical entries pop adjacently
		}
		lastKey = sd.site.Key
		if c.AddCut(Cut{Line: geom.Bisector(target, sd.site.Loc), Key: sd.site.Key}) {
			changed++
			maxDist = c.MaxDistFrom(target)
		}
	}
	sc.ordered = ordered
	insertPool.Put(sc)
	return changed
}

// less orders batch entries by distance, breaking ties by Key, so the
// consumption order does not depend on the order of the input slice
// (and in-batch duplicate keys at equal distance pop adjacently).
func (a siteDist) less(b siteDist) bool {
	if a.d2 != b.d2 {
		return a.d2 < b.d2
	}
	return a.site.Key < b.site.Key
}

// heapifySites arranges s as a binary min-heap on (d2, Key).
func heapifySites(s []siteDist) {
	for i := len(s)/2 - 1; i >= 0; i-- {
		siftDownSite(s, i)
	}
}

// siftDownSite restores the min-heap property below index i.
func siftDownSite(s []siteDist, i int) {
	for {
		l := 2*i + 1
		if l >= len(s) {
			return
		}
		least := l
		if r := l + 1; r < len(s) && s[r].less(s[l]) {
			least = r
		}
		if !s[least].less(s[i]) {
			return
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}
