package core

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/sampling"
)

// LROptions configures Algorithm LR-LBS-AGG. The zero value enables no
// error-reduction device (the §3.1 baseline, "LR-LBS-AGG-0"); the
// DefaultLROptions constructor enables all of them ("LR-LBS-AGG").
type LROptions struct {
	// UseK is how many of the service's returned tuples to exploit per
	// sampled query (≤ the service's k). 0 means the service's k.
	UseK int
	// FixedH forces every selected tuple to be weighted by its
	// top-FixedH Voronoi cell (capped at UseK). 0 enables the adaptive
	// per-tuple choice of §3.2.3 (which requires UseHistory to have
	// any effect; without history the choice degenerates to h=1).
	FixedH int
	// Lambda0Frac is the λ0 threshold of the adaptive choice expressed
	// as a fraction of the bounding-region area: the largest h whose
	// history-derived upper bound λ_h(t) stays below λ0 is used.
	// Default 0.001 (h grows only for tuples whose top-h cells stay
	// tiny, where the extra cells are nearly free under history).
	Lambda0Frac float64
	// FastInit enables the fake-tuple initialization of §3.2.1.
	FastInit bool
	// FastInitFactor scales the fake-tuple box: half-width = factor ×
	// (distance from the tuple to the farthest tuple of the answer
	// that discovered it). Default 8, conservatively large as the
	// paper advises.
	FastInitFactor float64
	// UseHistory enables reuse of previously observed tuples (§3.2.2).
	UseHistory bool
	// MonteCarlo enables the unbiased early-finish of §3.2.4: once a
	// vertex round shrinks the tentative cell by less than MCAreaRatio
	// (relatively), the exact computation stops and the remaining
	// uncertainty is resolved by geometric trials.
	MonteCarlo  bool
	MCAreaRatio float64 // default 0.05
	MCMinRounds int     // default 2
	MCMaxTrials int     // safety cap, default 100000
	// UseLowerBound enables the lower-bound region of §3.2.4, skipping
	// confirmation queries at points provably inside the cell.
	UseLowerBound bool
	// LowerBoundSamples is the boundary sampling resolution of the
	// disk-union coverage test. Default 48.
	LowerBoundSamples int
	// MaxRounds caps vertex-test rounds per cell as a numerical-
	// robustness guard. Default 200.
	MaxRounds int
	// Region restricts the estimation to a sub-region of the service's
	// coverage (e.g. "Austin, TX"): query locations are sampled from it
	// and Voronoi cells are clipped against it. The zero value means
	// the whole service bounds. Estimates then cover every tuple whose
	// cell intersects the region; combine with a location condition in
	// the aggregate to count region residents exactly.
	Region geom.Rect
	// Sampler is the query-location distribution (uniform over the
	// estimation region when nil). Weighted samplers implement the
	// external-knowledge optimization of §5.2.
	Sampler sampling.Sampler
	// Filter is an optional server-side selection pass-through (§5.1):
	// it restricts the hidden database the estimate refers to.
	Filter lbs.Filter
	// Seed drives the aggregator's randomness.
	Seed int64
}

// DefaultLROptions returns the full LR-LBS-AGG configuration with all
// four error-reduction devices enabled.
func DefaultLROptions(seed int64) LROptions {
	return LROptions{
		FastInit:      true,
		UseHistory:    true,
		MonteCarlo:    true,
		UseLowerBound: true,
		Seed:          seed,
	}
}

// LRStats counts the internal events of a run, for the efficiency
// analyses of §3.2.
type LRStats struct {
	Samples          int
	Cells            int   // Voronoi cells computed
	VertexQueries    int64 // queries spent on vertex tests
	SkippedByLower   int64 // vertex/trial queries avoided by the lower bound
	MCFinishes       int   // cells finished by Monte-Carlo trials
	MCTrials         int64 // total Monte-Carlo trials
	FastInitQueries  int64 // queries spent during fake-tuple initialization
	EmptyAnswers     int   // sampled queries with empty answers (dmax)
	DegenerateCells  int   // cells whose region mass was ~0 (skipped)
	AdaptiveHChosen  map[int]int
	MaxRoundsTripped int
}

// siteIndex is the observation store the LR devices consult. *History
// is its implementation; the package tests substitute a whole-history
// scan to pin that the grid index changes no result.
type siteIndex interface {
	Observe(id int64, loc geom.Point) bool
	Len() int
	InsertInto(c *cell.Complex, target geom.Point, excludeID int64) int
	CountCloser(p, target geom.Point, excludeID int64, limit int) int
}

// LRAggregator implements Algorithm LR-LBS-AGG (Algorithm 5).
type LRAggregator struct {
	svc   Oracle
	opts  LROptions
	rng   *rand.Rand
	smp   sampling.Sampler
	hist  siteIndex
	bound geom.Rect
	stats LRStats
	vtol  float64 // vertex quantization tolerance
	// seeds are chooseH's history-seeded complexes, one per exploited
	// tuple, reset and refilled every Step so their storage is reused
	// (computeWeight continues on a WithK copy).
	seeds []*cell.Complex
}

// NewLRAggregator builds an aggregator over an LR service view.
func NewLRAggregator(svc Oracle, opts LROptions) *LRAggregator {
	if opts.UseK <= 0 || opts.UseK > svc.K() {
		opts.UseK = svc.K()
	}
	if opts.Lambda0Frac <= 0 {
		opts.Lambda0Frac = 0.001
	}
	if opts.FastInitFactor <= 0 {
		opts.FastInitFactor = 8
	}
	if opts.MCAreaRatio <= 0 {
		opts.MCAreaRatio = 0.05
	}
	if opts.MCMinRounds <= 0 {
		opts.MCMinRounds = 2
	}
	if opts.MCMaxTrials <= 0 {
		opts.MCMaxTrials = 100000
	}
	if opts.LowerBoundSamples <= 0 {
		opts.LowerBoundSamples = 48
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 200
	}
	region := opts.Region
	if region.Area() <= 0 {
		region = svc.Bounds()
	}
	smp := opts.Sampler
	if smp == nil {
		smp = sampling.NewUniform(region)
	}
	return &LRAggregator{
		svc:   svc,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
		smp:   smp,
		hist:  NewHistory(region),
		bound: region,
		stats: LRStats{AdaptiveHChosen: make(map[int]int)},
		vtol:  region.Diagonal() * 1e-9,
	}
}

// Stats returns run statistics accumulated so far.
func (a *LRAggregator) Stats() LRStats { return a.stats }

// query issues one LR query through the configured filter. Answers
// are re-sorted by distance from the query point: for distance-ranked
// services this is a no-op, while for "prominence"-style rankings it
// implements the §5.3 post-processing that recovers nearest-neighbor
// semantics from the richer answer (locations are returned, so the
// client can always re-rank).
func (a *LRAggregator) query(ctx context.Context, p geom.Point) ([]lbs.LRRecord, error) {
	recs, err := a.svc.QueryLR(ctx, p, a.opts.Filter)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(recs, func(i, j int) bool {
		return p.Dist2(recs[i].Loc) < p.Dist2(recs[j].Loc)
	})
	return recs, nil
}

// observe folds an answer into the history.
func (a *LRAggregator) observe(recs []lbs.LRRecord, local *History) {
	for _, r := range recs {
		if a.opts.UseHistory {
			a.hist.Observe(r.ID, r.Loc)
		}
		if local != nil {
			local.Observe(r.ID, r.Loc)
		}
	}
}

type vkey struct{ x, y int64 }

func (a *LRAggregator) keyOf(p geom.Point) vkey {
	return vkey{int64(math.Round(p.X / a.vtol)), int64(math.Round(p.Y / a.vtol))}
}

// rankOfID returns the 0-based rank of id in an answer, or −1.
func rankOfID(recs []lbs.LRRecord, id int64) int {
	for i, r := range recs {
		if r.ID == id {
			return i
		}
	}
	return -1
}

// sitesOf converts an answer into cell sites, excluding the target.
func sitesOf(recs []lbs.LRRecord, excludeID int64) []cell.Site {
	out := make([]cell.Site, 0, len(recs))
	for _, r := range recs {
		if r.ID != excludeID {
			out = append(out, cell.Site{Key: r.ID, Loc: r.Loc})
		}
	}
	return out
}

// massOfRegion returns ∫_region f — the selection probability of the
// tuple whose (tentative) cell the region is, under sampler f.
func (a *LRAggregator) massOfRegion(region *cell.Complex) float64 {
	var mass float64
	for _, f := range region.Faces() {
		mass += a.smp.IntegratePolygon(f.Poly)
	}
	return mass
}

// chooseH implements the variance-reduction rule of §3.2.3: the
// largest h ∈ [2, k] whose history-derived upper bound λ_h(t) is below
// λ0, else 1; additionally it returns a history-seeded complex deep
// enough for the caller to continue from seed.WithK(h) without
// recomputation (nil without history).
//
// The seed is built only as deep as the decision needs. A depth-m
// complex holds exactly the depth-k complex's faces of count ≤ m−1, as
// the same polygons in the same order: counts only grow, a face is
// split only by cuts that reach it, and InsertSites prunes by the
// smaller region's reach, dropping only cuts that cannot touch those
// faces. So the depth-2 complex decides λ_2 > λ0 (h = 1, the common
// case) on its own, and only a tuple with λ_2 ≤ λ0 pays for depth k.
// The complex is the i-th of the aggregator's reusable seeds: it stays
// valid until the next Step.
func (a *LRAggregator) chooseH(i int, tID int64, tLoc geom.Point) (int, *cell.Complex) {
	k := a.opts.UseK
	if a.opts.FixedH > 0 {
		h := min(a.opts.FixedH, k)
		// One level deeper than h (when k allows), so WithK(h) filters
		// and re-sums the faces exactly as it does on a depth-k seed.
		return h, a.buildSeed(i, tID, tLoc, min(h+1, k))
	}
	seed := a.buildSeed(i, tID, tLoc, min(2, k))
	if seed == nil || k < 2 {
		return 1, seed
	}
	h := 1
	if lambda0 := a.opts.Lambda0Frac * a.bound.Area(); areaAtMost2(seed, k) <= lambda0 {
		if k > 2 {
			seed = a.buildSeed(i, tID, tLoc, k)
		}
		for cand := 2; cand <= k; cand++ {
			if seed.AreaAtMost(cand) > lambda0 {
				break // λ_h is non-decreasing in h
			}
			h = cand
		}
	}
	a.stats.AdaptiveHChosen[h]++
	return h, seed
}

// buildSeed resets the i-th reusable complex to depth k and fills it from
// the history; nil when history is off or holds at most one tuple.
func (a *LRAggregator) buildSeed(i int, tID int64, tLoc geom.Point, k int) *cell.Complex {
	if !a.opts.UseHistory || a.hist.Len() <= 1 {
		return nil
	}
	if i == len(a.seeds) {
		a.seeds = append(a.seeds, cell.New(a.bound.Polygon(), k))
	}
	c := a.seeds[i]
	c.Reset(k)
	a.hist.InsertInto(c, tLoc, tID)
	return c
}

// areaAtMost2 returns λ_2 from a depth-min(2, k) seed bit for bit as
// the depth-k seed's AreaAtMost(2) computes it: the incrementally
// cached area when k = 2, else the face areas summed in order.
func areaAtMost2(seed *cell.Complex, k int) float64 {
	if k == 2 {
		return seed.Area()
	}
	var sum float64
	faces := seed.Faces()
	for i := range faces {
		sum += faces[i].Area()
	}
	return sum
}

// cellContext carries the confirmation state of one cell computation.
type cellContext struct {
	tID    int64
	tLoc   geom.Point
	h      int
	local  *History      // this cell's sightings; nil when UseHistory is on
	disks  []geom.Circle // disks C(v, |v−t|) at confirmed points v
	region *cell.Complex
}

// known returns the observations a cell may use: the global history
// if enabled, else the cell's own sightings.
func (a *LRAggregator) known(cc *cellContext) siteIndex {
	if a.opts.UseHistory {
		return a.hist
	}
	return cc.local
}

// canSkip reports whether p provably lies inside the top-h cell
// without a query (§3.2.4 lower bound): the circle C(p, |p−t|) must be
// covered by the union of confirmed disks — guaranteeing every tuple
// closer to p than t has been observed — and the observed
// closer-than-t count must stay below h.
func (a *LRAggregator) canSkip(cc *cellContext, p geom.Point) bool {
	if len(cc.disks) == 0 {
		return false
	}
	r := p.Dist(cc.tLoc)
	if r < geom.Eps {
		return true // p is the tuple location itself
	}
	margin := r * 1e-9
	if !geom.DiskUnionCoversCircle(cc.disks, geom.Circle{Center: p, R: r},
		a.opts.LowerBoundSamples, margin) {
		return false
	}
	return a.known(cc).CountCloser(p, cc.tLoc, cc.tID, cc.h-1) <= cc.h-1
}

// computeWeight computes 1/p̂(t) for tuple t using its top-h Voronoi
// cell, by the Theorem-1 loop plus the enabled devices. hint is the
// answer that discovered t (used by fast initialization); seed is the
// history-seeded complex from chooseH, at least h deep (may be nil).
func (a *LRAggregator) computeWeight(ctx context.Context, tID int64, tLoc geom.Point, h int, hint []lbs.LRRecord, seed *cell.Complex) (float64, error) {
	a.stats.Cells++
	cc := &cellContext{tID: tID, tLoc: tLoc, h: h}
	if !a.opts.UseHistory {
		// Seed the local history from the discovering answer.
		cc.local = NewHistory(a.bound)
		a.observe(hint, cc.local)
	}
	boundPoly := a.bound.Polygon()
	if seed != nil {
		cc.region = seed.WithK(h)
	} else {
		cc.region = cell.New(boundPoly, h)
		cell.InsertSites(cc.region, tLoc, sitesOf(hint, tID))
	}

	// Faster initialization (§3.2.1) when the region is still huge.
	if a.opts.FastInit && cc.region.Area() > 0.25*a.bound.Area() {
		if err := a.fastInit(ctx, cc, hint); err != nil {
			return 0, err
		}
	}

	confirmed := make(map[vkey]bool)
	prevArea := cc.region.Area()
	for round := 1; ; round++ {
		if round > a.opts.MaxRounds {
			a.stats.MaxRoundsTripped++
			break
		}
		changed := false
		for _, v := range cc.region.Vertices() {
			key := a.keyOf(v)
			if confirmed[key] {
				continue
			}
			if a.opts.UseLowerBound && a.canSkip(cc, v) {
				confirmed[key] = true
				a.stats.SkippedByLower++
				continue
			}
			recs, err := a.query(ctx, v)
			if err != nil {
				return 0, err
			}
			a.stats.VertexQueries++
			a.observe(recs, cc.local)
			if r := rankOfID(recs, tID); r >= 0 {
				cc.disks = append(cc.disks, geom.Circle{Center: v, R: v.Dist(tLoc)})
				if r < h {
					confirmed[key] = true
				}
			}
			if cell.InsertSites(cc.region, tLoc, sitesOf(recs, tID)) > 0 {
				changed = true
			}
		}
		if !changed {
			break // Theorem 1: the region is the exact top-h cell
		}
		area := cc.region.Area()
		if a.opts.MonteCarlo && round >= a.opts.MCMinRounds &&
			prevArea-area < a.opts.MCAreaRatio*math.Max(area, geom.Eps) {
			return a.mcFinish(ctx, cc)
		}
		prevArea = area
	}
	p := a.massOfRegion(cc.region)
	if p <= 0 {
		a.stats.DegenerateCells++
		return 0, nil
	}
	return 1 / p, nil
}

// fastInit implements Algorithm 2: four fake tuples bound the target,
// the tentative (fake) cell's vertices are queried once, and the
// region is rebuilt from the real tuples discovered. If the fake box
// was too small (no real tuple discovered), the region reverts to the
// full bounding box — at a waste of at most the initialization
// queries, exactly as the paper argues.
func (a *LRAggregator) fastInit(ctx context.Context, cc *cellContext, hint []lbs.LRRecord) error {
	r := a.fastInitRadius(cc, hint)
	fake := [4]geom.Point{
		cc.tLoc.Add(geom.Pt(2*r, 0)),
		cc.tLoc.Add(geom.Pt(-2*r, 0)),
		cc.tLoc.Add(geom.Pt(0, 2*r)),
		cc.tLoc.Add(geom.Pt(0, -2*r)),
	}
	tmp := cell.New(a.bound.Polygon(), cc.h)
	// Real cuts already known (history / hint) keep the fake region
	// honest; then the fake cuts shrink it to a box around t.
	a.known(cc).InsertInto(tmp, cc.tLoc, cc.tID)
	for i, f := range fake {
		tmp.AddCut(cell.Cut{Line: geom.Bisector(cc.tLoc, f), Key: int64(-1 - i)})
	}
	for _, v := range tmp.Vertices() {
		recs, err := a.query(ctx, v)
		if err != nil {
			return err
		}
		a.stats.FastInitQueries++
		a.observe(recs, cc.local)
		if rank := rankOfID(recs, cc.tID); rank >= 0 {
			cc.disks = append(cc.disks, geom.Circle{Center: v, R: v.Dist(cc.tLoc)})
		}
	}
	// Rebuild from real tuples only.
	region := cell.New(a.bound.Polygon(), cc.h)
	a.known(cc).InsertInto(region, cc.tLoc, cc.tID)
	cc.region = region
	return nil
}

// fastInitRadius chooses the fake-box scale from the discovering
// answer: FastInitFactor × the spread of the answer around the target,
// falling back to a twentieth of the bounding diagonal.
func (a *LRAggregator) fastInitRadius(cc *cellContext, hint []lbs.LRRecord) float64 {
	var m float64
	for _, r := range hint {
		if d := r.Loc.Dist(cc.tLoc); r.ID != cc.tID && d > m {
			m = d
		}
	}
	if m < geom.Eps {
		return a.bound.Diagonal() / 20
	}
	return a.opts.FastInitFactor * m
}

// mcFinish implements the Monte-Carlo device of §3.2.4: with the
// region V′ ⊇ V_h(t) frozen, sample points from the query distribution
// restricted to V′ until one falls inside the true cell; the trial
// count r is an unbiased estimate of mass(V′)/mass(V_h), so r/mass(V′)
// is an unbiased estimate of 1/p(t). Points proven inside by the lower
// bound count as successes without a query.
func (a *LRAggregator) mcFinish(ctx context.Context, cc *cellContext) (float64, error) {
	a.stats.MCFinishes++
	pPrime := a.massOfRegion(cc.region)
	if pPrime <= 0 {
		a.stats.DegenerateCells++
		return 0, nil
	}
	for r := 1; r <= a.opts.MCMaxTrials; r++ {
		a.stats.MCTrials++
		x, ok := a.sampleFromRegion(cc.region)
		if !ok {
			a.stats.DegenerateCells++
			return 0, nil
		}
		if a.opts.UseLowerBound && a.canSkip(cc, x) {
			a.stats.SkippedByLower++
			return float64(r) / pPrime, nil
		}
		recs, err := a.query(ctx, x)
		if err != nil {
			return 0, err
		}
		a.observe(recs, cc.local)
		if rank := rankOfID(recs, cc.tID); rank >= 0 {
			cc.disks = append(cc.disks, geom.Circle{Center: x, R: x.Dist(cc.tLoc)})
			if rank < cc.h {
				return float64(r) / pPrime, nil
			}
		}
	}
	// Trial cap reached (pathological); accept the capped count.
	return float64(a.opts.MCMaxTrials) / pPrime, nil
}

// sampleFromRegion draws a point distributed as the sampler's density
// restricted to the region, by rejection from the area-uniform
// distribution over the region's faces.
func (a *LRAggregator) sampleFromRegion(region *cell.Complex) (geom.Point, bool) {
	var bb geom.Rect
	first := true
	for _, f := range region.Faces() {
		r := f.Poly.BoundingRect()
		if first {
			bb = r
			first = false
		} else {
			bb = geom.BoundingRect([]geom.Point{bb.Min, bb.Max, r.Min, r.Max})
		}
	}
	if first {
		return geom.Point{}, false
	}
	fmax := a.smp.MaxDensityInRect(bb)
	if fmax <= 0 {
		return geom.Point{}, false
	}
	for tries := 0; tries < 100000; tries++ {
		p, ok := region.RandomPoint(a.rng)
		if !ok {
			return geom.Point{}, false
		}
		if a.rng.Float64()*fmax <= a.smp.Density(p) {
			return p, true
		}
	}
	// The sampler assigns (essentially) no mass to the region; treat
	// as degenerate.
	return geom.Point{}, false
}

// Step draws one random query location and produces one unbiased
// per-sample estimate for each aggregate (Algorithm 5 body).
func (a *LRAggregator) Step(ctx context.Context, aggs []Aggregate) ([]float64, error) {
	q := a.smp.Sample(a.rng)
	recs, err := a.query(ctx, q)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(aggs))
	if len(recs) == 0 {
		// Empty answer under the coverage cap: the estimate for this
		// sample is 0, which keeps the estimator unbiased (§5.3).
		a.stats.EmptyAnswers++
		a.stats.Samples++
		return out, nil
	}
	kUse := a.opts.UseK
	if kUse > len(recs) {
		kUse = len(recs)
	}
	// The adaptive h(t) must be a function of *past* observations only:
	// folding the current answer into the history before choosing h
	// would correlate h(t) with the sampled point and break the
	// unbiasedness argument of estimator (2). So choose h for all
	// returned tuples first, then observe the answer.
	hs := make([]int, kUse)
	seeds := make([]*cell.Complex, kUse)
	for i := 0; i < kUse; i++ {
		hs[i], seeds[i] = a.chooseH(i, recs[i].ID, recs[i].Loc)
	}
	a.observe(recs, nil)
	for i := 0; i < kUse; i++ {
		t := recs[i]
		h, seedRegion := hs[i], seeds[i]
		// A tuple at rank i+1 contributes only when the sampled point
		// lies inside the top-h cell used for weighting, i.e. i+1 ≤ h.
		if i+1 > h {
			continue
		}
		w, err := a.computeWeight(ctx, t.ID, t.Loc, h, recs, seedRegion)
		if err != nil {
			return nil, err
		}
		if w == 0 {
			continue
		}
		rec := recordOfLR(t)
		for j := range aggs {
			out[j] += aggs[j].Value(rec) * w
		}
	}
	a.stats.Samples++
	return out, nil
}

// Service returns the Oracle this aggregator queries, implementing
// Estimator.
func (a *LRAggregator) Service() Oracle { return a.svc }

// Fork returns an independent LR aggregator of the same configuration
// over the same service for the Driver's parallel mode. The fork seed
// mixes a draw from the receiver's generator with the caller-supplied
// index, so successive parallel runs on the same aggregator spawn
// forks with fresh, independent random walks instead of replaying the
// previous run's samples. Forks start with an empty observation
// history; history is a variance-reduction device only, so the forked
// samples remain unbiased.
func (a *LRAggregator) Fork(seed int64) Estimator {
	opts := a.opts
	opts.Seed = a.rng.Int63() ^ (seed << 32)
	return NewLRAggregator(a.svc, opts)
}

// Run draws samples through the shared Driver until one of the
// configured bounds triggers (see RunOption); with no options it runs
// until the service budget is exhausted or ctx is canceled.
func (a *LRAggregator) Run(ctx context.Context, aggs []Aggregate, opts ...RunOption) ([]Result, error) {
	return Run(ctx, a, aggs, opts...)
}
