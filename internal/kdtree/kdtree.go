// Package kdtree provides a 2-D k-d tree used as the query engine of
// the simulated location based services: exact k-nearest-neighbor
// search with optional per-tuple filtering (for server-side selection
// pass-through) and radius-bounded search (for the maximum-coverage
// constraint of §5.3).
//
// The tree is built once over a static point set (LBS databases in the
// paper are static) and is safe for concurrent readers.
//
// # Allocation contract
//
// The tree is the innermost dependency of every simulated oracle call,
// so the query API has allocation-free entry points: KNNInto and
// KNNWithinInto append into a caller-provided buffer (reusing its
// capacity) and traverse iteratively with a fixed-size stack, so a
// warm caller performs zero heap allocations per query. KNN/KNNWithin
// are the convenience wrappers that allocate a fresh result slice.
package kdtree

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/geom"
)

// Tree is an immutable 2-D k-d tree over an indexed point set.
type Tree struct {
	pts   []geom.Point // original points, indexed by caller indices
	nodes []node       // implicit tree in preorder

	// Whole-set coordinate extents, recorded at build time for the
	// geodesic pruning bounds (see geodesic.go): the X (longitude)
	// range and the largest |Y| (latitude magnitude). One O(n) pass;
	// the Euclidean query paths never read them.
	minX, maxX, maxAbsY float64
}

type node struct {
	idx         int // index into pts
	axis        uint8
	left, right int32 // node slice offsets; −1 = none
}

// Build constructs a tree over pts. Indices reported by searches refer
// to positions in pts. Build copies the points, so the caller remains
// free to mutate or reuse the input slice afterwards; use BuildOwned
// to skip the copy when ownership is transferred.
func Build(pts []geom.Point) *Tree {
	return BuildOwned(append([]geom.Point(nil), pts...))
}

// BuildOwned constructs a tree that takes ownership of pts without
// copying: the caller must not mutate the slice (or its backing array)
// for the lifetime of the tree. Intended for construction-time callers
// that build the point set privately, e.g. lbs.Database.
func BuildOwned(pts []geom.Point) *Tree {
	t := &Tree{pts: pts}
	if len(pts) == 0 {
		return t
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	t.nodes = make([]node, 0, len(pts))
	if len(pts) >= parallelBuildMin && runtime.GOMAXPROCS(0) > 1 {
		t.buildParallel(idx)
	} else {
		t.build(idx, 0)
	}
	t.computeExtents()
	return t
}

// computeExtents records the whole-set coordinate extents consumed by
// the geodesic pruning bounds.
func (t *Tree) computeExtents() {
	if len(t.pts) == 0 {
		return
	}
	t.minX, t.maxX = t.pts[0].X, t.pts[0].X
	t.maxAbsY = math.Abs(t.pts[0].Y)
	for _, p := range t.pts[1:] {
		if p.X < t.minX {
			t.minX = p.X
		}
		if p.X > t.maxX {
			t.maxX = p.X
		}
		if a := math.Abs(p.Y); a > t.maxAbsY {
			t.maxAbsY = a
		}
	}
}

// parallelBuildMin is the point count below which a parallel build is
// not worth the goroutine overhead.
const parallelBuildMin = 4096

// subtask is one subtree handed to a build worker: the index window it
// owns, the depth its root sits at, and the fragment it produced.
type subtask struct {
	idx   []int
	depth int
	frag  []node
}

// buildParallel splits the build: the top spineLevels of the tree are
// partitioned sequentially (cheap — a few quickselects over the full
// window), and the 2^spineLevels remaining subtrees build concurrently
// into private node fragments over disjoint index windows. Fragments
// splice back in with an offset shift, so the resulting tree is
// structurally identical to a sequential build up to node layout —
// median selection is deterministic, and queries never observe layout.
func (t *Tree) buildParallel(idx []int) {
	levels := 2
	if runtime.GOMAXPROCS(0) >= 8 {
		levels = 3
	}
	var tasks []subtask
	t.spine(idx, 0, levels, &tasks)
	spineLen := len(t.nodes)
	var wg sync.WaitGroup
	for i := range tasks {
		wg.Add(1)
		go func(st *subtask) {
			defer wg.Done()
			f := Tree{pts: t.pts, nodes: make([]node, 0, len(st.idx))}
			f.build(st.idx, st.depth)
			st.frag = f.nodes
		}(&tasks[i])
	}
	wg.Wait()
	offs := make([]int32, len(tasks))
	for i := range tasks {
		offs[i] = t.splice(tasks[i].frag)
	}
	// Patch the spine's task references (encoded ≤ −2) to the spliced
	// fragment roots.
	for i := 0; i < spineLen; i++ {
		if v := t.nodes[i].left; v <= -2 {
			t.nodes[i].left = offs[-2-v]
		}
		if v := t.nodes[i].right; v <= -2 {
			t.nodes[i].right = offs[-2-v]
		}
	}
}

// spine builds the top levels of the tree sequentially; where levels
// run out it records a subtask and returns an encoded reference
// (−2−taskIndex) for buildParallel to patch after the joins.
func (t *Tree) spine(idx []int, depth, levels int, tasks *[]subtask) int32 {
	if len(idx) == 0 {
		return -1
	}
	if levels == 0 {
		*tasks = append(*tasks, subtask{idx: idx, depth: depth})
		return -2 - int32(len(*tasks)-1)
	}
	axis := uint8(depth % 2)
	mid := len(idx) / 2
	t.selectMedian(idx, mid, axis)
	off := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{idx: idx[mid], axis: axis})
	l := t.spine(idx[:mid], depth+1, levels-1, tasks)
	r := t.spine(idx[mid+1:], depth+1, levels-1, tasks)
	t.nodes[off].left = l
	t.nodes[off].right = r
	return off
}

// splice appends a privately built fragment to the node arena and
// returns its root's offset, shifting the fragment's internal child
// pointers (fragments are preorder, so the root is entry 0).
func (t *Tree) splice(frag []node) int32 {
	if len(frag) == 0 {
		return -1
	}
	base := int32(len(t.nodes))
	for i := range frag {
		if frag[i].left >= 0 {
			frag[i].left += base
		}
		if frag[i].right >= 0 {
			frag[i].right += base
		}
	}
	t.nodes = append(t.nodes, frag...)
	return base
}

// build recursively partitions idx around the median along the given
// axis and returns the node offset (−1 for empty). Median selection is
// quickselect (expected O(n) per level, O(n log n) for the whole
// build), and always places the median at len/2, so the tree is
// perfectly balanced and traversal depth is bounded by ⌈log₂ n⌉+1.
func (t *Tree) build(idx []int, depth int) int32 {
	if len(idx) == 0 {
		return -1
	}
	axis := uint8(depth % 2)
	mid := len(idx) / 2
	t.selectMedian(idx, mid, axis)
	off := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{idx: idx[mid], axis: axis})
	left := t.build(idx[:mid], depth+1)
	right := t.build(idx[mid+1:], depth+1)
	t.nodes[off].left = left
	t.nodes[off].right = right
	return off
}

// coord returns the build key of point index i along axis.
func (t *Tree) coord(i int, axis uint8) float64 {
	if axis == 0 {
		return t.pts[i].X
	}
	return t.pts[i].Y
}

// selectMedian partially orders idx so that idx[nth] holds the element
// of rank nth along axis, everything before it is ≤ and everything
// after is ≥ (quickselect with median-of-three pivoting; insertion
// sort below a small cutoff).
func (t *Tree) selectMedian(idx []int, nth int, axis uint8) {
	lo, hi := 0, len(idx)-1
	for hi-lo > 12 {
		// Median-of-three pivot, stored at lo.
		m := lo + (hi-lo)/2
		if t.coord(idx[m], axis) < t.coord(idx[lo], axis) {
			idx[m], idx[lo] = idx[lo], idx[m]
		}
		if t.coord(idx[hi], axis) < t.coord(idx[lo], axis) {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if t.coord(idx[hi], axis) < t.coord(idx[m], axis) {
			idx[hi], idx[m] = idx[m], idx[hi]
		}
		idx[lo], idx[m] = idx[m], idx[lo]
		pivot := t.coord(idx[lo], axis)
		// Hoare partition.
		i, j := lo, hi+1
		for {
			for {
				i++
				if i > hi || t.coord(idx[i], axis) >= pivot {
					break
				}
			}
			for {
				j--
				if t.coord(idx[j], axis) <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			idx[i], idx[j] = idx[j], idx[i]
		}
		idx[lo], idx[j] = idx[j], idx[lo]
		switch {
		case j == nth:
			return
		case j < nth:
			lo = j + 1
		default:
			hi = j - 1
		}
	}
	// Insertion sort on the remaining window.
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && t.coord(idx[j], axis) < t.coord(idx[j-1], axis); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// PreorderIndices returns the point indices in the tree's preorder
// (root, left subtree, right subtree). A point set stored in this
// order can be re-indexed by BuildPreordered without any median
// selection: the median-at-len/2 build makes the tree shape a pure
// function of the point count, so preorder position alone determines
// structure.
func (t *Tree) PreorderIndices() []int {
	out := make([]int, 0, len(t.nodes))
	if len(t.nodes) == 0 {
		return out
	}
	stack := make([]int32, 1, maxTraversalDepth)
	stack[0] = 0
	for len(stack) > 0 {
		off := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[off]
		out = append(out, n.idx)
		if n.right >= 0 {
			stack = append(stack, n.right)
		}
		if n.left >= 0 {
			stack = append(stack, n.left)
		}
	}
	return out
}

// BuildPreordered constructs a tree over pts already arranged in the
// preorder of a median-balanced build (as reported by
// PreorderIndices). It takes ownership of pts like BuildOwned, and
// runs in O(n) with no comparisons: the subtree sizes replay the
// exact shape build would have produced, and the partitioning
// invariant is inherited from the order in which the points were
// laid out. Callers must only feed it genuinely preordered data (the
// store's pack format guarantees this for checksummed files).
func BuildPreordered(pts []geom.Point) *Tree {
	t := &Tree{pts: pts}
	if len(pts) == 0 {
		return t
	}
	t.nodes = make([]node, 0, len(pts))
	t.buildPre(0, len(pts), 0)
	t.computeExtents()
	return t
}

// buildPre lays out the subtree whose preorder window is
// [lo, lo+n): the root sits at lo, its left subtree (⌊n/2⌋ points)
// follows immediately, the right subtree takes the rest.
func (t *Tree) buildPre(lo, n, depth int) int32 {
	if n == 0 {
		return -1
	}
	mid := n / 2
	off := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{idx: lo, axis: uint8(depth % 2)})
	left := t.buildPre(lo+1, mid, depth+1)
	right := t.buildPre(lo+1+mid, n-mid-1, depth+1)
	t.nodes[off].left = left
	t.nodes[off].right = right
	return off
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.pts) }

// Point returns the point at index i.
func (t *Tree) Point(i int) geom.Point { return t.pts[i] }

// Neighbor is one search result: the point's index and its Euclidean
// distance from the query.
type Neighbor struct {
	Index int
	Dist  float64
}

// nbWorse is the max-heap / sort order of the search frontier: by
// distance, ties broken by index for determinism.
func nbWorse(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Index > b.Index
}

// siftDownNb restores the "worst at root" heap property below i.
func siftDownNb(h []Neighbor, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		worst := l
		if r := l + 1; r < len(h) && nbWorse(h[r], h[l]) {
			worst = r
		}
		if !nbWorse(h[worst], h[i]) {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// siftUpNb restores the heap property above i after a push at i.
func siftUpNb(h []Neighbor, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !nbWorse(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// maxTraversalDepth bounds the iterative traversal stack. The build is
// median-balanced, so depth ≤ ⌈log₂ n⌉+1 ≤ 64 for any addressable n.
const maxTraversalDepth = 64

// KNN returns up to k nearest neighbors of q among points accepted by
// filter (nil filter accepts everything), ordered by increasing
// distance. Ties are broken by index for determinism.
func (t *Tree) KNN(q geom.Point, k int, filter func(int) bool) []Neighbor {
	return t.KNNWithinInto(q, k, math.Inf(1), filter, nil)
}

// KNNWithin behaves like KNN but only considers points within maxDist
// of q (the paper's maximum-coverage constraint dmax).
func (t *Tree) KNNWithin(q geom.Point, k int, maxDist float64, filter func(int) bool) []Neighbor {
	return t.KNNWithinInto(q, k, maxDist, filter, nil)
}

// KNNInto is KNN appending into buf[:0] (whose capacity is reused; a
// nil buf allocates). The returned slice aliases buf and is valid only
// until the caller reuses it. With cap(buf) ≥ k+1 the search performs
// no heap allocation.
func (t *Tree) KNNInto(q geom.Point, k int, filter func(int) bool, buf []Neighbor) []Neighbor {
	return t.KNNWithinInto(q, k, math.Inf(1), filter, buf)
}

// KNNWithinInto is the radius-capped allocation-free variant; see
// KNNInto for the buffer contract.
func (t *Tree) KNNWithinInto(q geom.Point, k int, maxDist float64, filter func(int) bool, buf []Neighbor) []Neighbor {
	h := buf[:0]
	if k <= 0 || len(t.nodes) == 0 {
		return h
	}
	maxDist2 := maxDist * maxDist
	// Iterative best-first descent: walk toward the query, stacking the
	// far child of every visited node together with its splitting-plane
	// distance; pop entries whose plane is still closer than the k-th
	// best distance. The stack never holds more than one entry per tree
	// level (entries are pushed in strictly increasing depth along any
	// descent), so a fixed array suffices — no per-query allocation.
	type frame struct {
		off    int32
		plane2 float64
	}
	var stack [maxTraversalDepth]frame
	top := 0
	off := int32(0)
	for {
		for off >= 0 {
			n := &t.nodes[off]
			p := t.pts[n.idx]
			d2 := q.Dist2(p)
			if d2 <= maxDist2 && (filter == nil || filter(n.idx)) {
				nb := Neighbor{Index: n.idx, Dist: math.Sqrt(d2)}
				if len(h) < k {
					h = append(h, nb)
					siftUpNb(h, len(h)-1)
				} else if nbWorse(h[0], nb) {
					h[0] = nb
					siftDownNb(h, 0)
				}
			}
			var planeDist float64
			if n.axis == 0 {
				planeDist = q.X - p.X
			} else {
				planeDist = q.Y - p.Y
			}
			near, far := n.left, n.right
			if planeDist > 0 {
				near, far = far, near
			}
			if far >= 0 {
				stack[top] = frame{off: far, plane2: planeDist * planeDist}
				top++
			}
			off = near
		}
		// Pop the next pending far subtree still worth visiting.
		off = -1
		for top > 0 {
			top--
			fr := stack[top]
			if fr.plane2 > maxDist2 {
				continue
			}
			// Every point behind the plane has Dist ≥ √plane2 (rounding
			// is monotone), so the subtree is skipped only when all of
			// it is strictly worse: an equal-Dist point with a smaller
			// Index may still displace the k-th best.
			if len(h) == k && math.Sqrt(fr.plane2) > h[0].Dist {
				continue
			}
			off = fr.off
			break
		}
		if off < 0 {
			break
		}
	}
	// Heap-sort in place: repeatedly swap the worst to the tail. The
	// "worst at root" order yields ascending (Dist, Index).
	for i := len(h) - 1; i > 0; i-- {
		h[0], h[i] = h[i], h[0]
		siftDownNb(h[:i], 0)
	}
	return h
}

// WithinRadius returns all points within radius r of q accepted by
// filter, ordered by increasing distance.
func (t *Tree) WithinRadius(q geom.Point, r float64, filter func(int) bool) []Neighbor {
	return t.WithinRadiusInto(q, r, filter, nil)
}

// WithinRadiusInto is WithinRadius appending into buf[:0] (capacity
// reused, nil buf allocates); the result aliases buf.
func (t *Tree) WithinRadiusInto(q geom.Point, r float64, filter func(int) bool, buf []Neighbor) []Neighbor {
	out := t.WithinRadiusUnordered(q, r, filter, buf)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Index < out[b].Index
	})
	return out
}

// WithinRadiusUnordered is WithinRadiusInto without the final distance
// sort, for callers that impose their own order anyway (ground-truth
// cell construction feeds the result to a distance heap): results come
// back in tree-traversal order.
func (t *Tree) WithinRadiusUnordered(q geom.Point, r float64, filter func(int) bool, buf []Neighbor) []Neighbor {
	out := buf[:0]
	if len(t.nodes) == 0 || r < 0 {
		return out
	}
	t.within(0, q, r*r, filter, &out)
	return out
}

func (t *Tree) within(off int32, q geom.Point, r2 float64, filter func(int) bool, out *[]Neighbor) {
	if off < 0 {
		return
	}
	n := &t.nodes[off]
	p := t.pts[n.idx]
	if d2 := q.Dist2(p); d2 <= r2 && (filter == nil || filter(n.idx)) {
		*out = append(*out, Neighbor{Index: n.idx, Dist: math.Sqrt(d2)})
	}
	var qc, pc float64
	if n.axis == 0 {
		qc, pc = q.X, p.X
	} else {
		qc, pc = q.Y, p.Y
	}
	near, far := n.left, n.right
	if qc > pc {
		near, far = far, near
	}
	t.within(near, q, r2, filter, out)
	planeDist := qc - pc
	if planeDist*planeDist <= r2 {
		t.within(far, q, r2, filter, out)
	}
}

// NearestDist returns the distance from q to its nearest indexed point,
// or +Inf when the tree is empty. Used by workload analysis and the
// Theorem-2 bias bound (which needs inter-tuple nearest distances).
func (t *Tree) NearestDist(q geom.Point, filter func(int) bool) float64 {
	var buf [1]Neighbor
	nb := t.KNNWithinInto(q, 1, math.Inf(1), filter, buf[:0])
	if len(nb) == 0 {
		return math.Inf(1)
	}
	return nb[0].Dist
}
