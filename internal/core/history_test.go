package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// linearHistory is the whole-history reference for History: every
// consumer scans all sightings. InsertInto hands the whole history to
// one cell.InsertSites call (the BuildFromSites path) and CountCloser
// counts every closer tuple, ignoring the limit.
type linearHistory struct {
	locs map[int64]geom.Point
}

func newLinearHistory() *linearHistory {
	return &linearHistory{locs: make(map[int64]geom.Point)}
}

func (h *linearHistory) Observe(id int64, loc geom.Point) bool {
	if _, ok := h.locs[id]; ok {
		return false
	}
	h.locs[id] = loc
	return true
}

func (h *linearHistory) Len() int { return len(h.locs) }

func (h *linearHistory) sites(excludeID int64) []cell.Site {
	out := make([]cell.Site, 0, len(h.locs))
	for id, loc := range h.locs {
		if id != excludeID {
			out = append(out, cell.Site{Key: id, Loc: loc})
		}
	}
	return out
}

func (h *linearHistory) InsertInto(c *cell.Complex, target geom.Point, excludeID int64) int {
	return cell.InsertSites(c, target, h.sites(excludeID))
}

func (h *linearHistory) CountCloser(p, target geom.Point, excludeID int64, _ int) int {
	dt := p.Dist2(target)
	n := 0
	for id, loc := range h.locs {
		if id != excludeID && p.Dist2(loc) < dt {
			n++
		}
	}
	return n
}

// sameComplex reports whether two complexes registered the same cuts
// and hold bitwise-identical faces in the same order.
func sameComplex(a, b *cell.Complex) bool {
	if !slices.Equal(a.CutKeys(), b.CutKeys()) {
		return false
	}
	fa, fb := a.Faces(), b.Faces()
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i].Count != fb[i].Count || !slices.Equal(fa[i].Poly, fb[i].Poly) {
			return false
		}
	}
	return true
}

// randomHistory fills a grid-indexed and a reference history with the
// same n sightings over a 10×10 region: a fifth lie outside the region
// (they clamp to border buckets), and a fifth repeat an earlier
// location under a new ID.
func randomHistory(rng *rand.Rand, region geom.Rect, n int) (*History, *linearHistory, []geom.Point) {
	h, ref := NewHistory(region), newLinearHistory()
	var locs []geom.Point
	for id := int64(1); len(locs) < n; id++ {
		var p geom.Point
		switch {
		case len(locs) > 0 && rng.Intn(5) == 0:
			p = locs[rng.Intn(len(locs))]
		case rng.Intn(4) == 0:
			p = geom.Pt(rng.Float64()*20-5, rng.Float64()*20-5)
		default:
			p = geom.RandomInRect(rng, region)
		}
		h.Observe(id, p)
		ref.Observe(id, p)
		locs = append(locs, p)
	}
	return h, ref, locs
}

// TestHistoryInsertIntoMatchesWholeHistory pins the ring-ordered
// insertion against one InsertSites call over the whole history: the
// same cuts and bitwise-identical faces, at every grid resolution the
// history passes through, for targets inside and outside the region.
func TestHistoryInsertIntoMatchesWholeHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	region := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	for _, n := range []int{1, 2, 7, 60, 400, 1500} {
		h, ref, locs := randomHistory(rng, region, n)
		for trial := 0; trial < 30; trial++ {
			// Targets: a history member (excluded by ID), a fresh point,
			// or a point outside the region.
			var target geom.Point
			exclude := int64(-1)
			switch trial % 3 {
			case 0:
				i := rng.Intn(len(locs))
				target, exclude = locs[i], int64(i+1)
			case 1:
				target = geom.RandomInRect(rng, region)
			default:
				target = geom.Pt(rng.Float64()*30-10, rng.Float64()*30-10)
			}
			for _, k := range []int{1, 3, 5} {
				want := cell.BuildFromSites(region.Polygon(), k, target, ref.sites(exclude))
				got := cell.New(region.Polygon(), k)
				h.InsertInto(got, target, exclude)
				if !sameComplex(got, want) {
					t.Fatalf("n=%d trial %d k=%d target %v: ring insertion differs from the whole-history build\n got keys %v\nwant keys %v",
						n, trial, k, target, got.CutKeys(), want.CutKeys())
				}
			}
		}
	}
}

// TestHistoryCountCloserLimit pins the bounded closer-count against
// brute force: min(count, limit+1) for every limit.
func TestHistoryCountCloserLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	region := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	for _, n := range []int{1, 30, 800} {
		h, ref, locs := randomHistory(rng, region, n)
		for trial := 0; trial < 200; trial++ {
			i := rng.Intn(len(locs))
			target, exclude := locs[i], int64(i+1)
			p := geom.Pt(rng.Float64()*14-2, rng.Float64()*14-2)
			if trial%4 == 0 {
				p = locs[rng.Intn(len(locs))] // on a sighting, and on duplicates
			}
			count := ref.CountCloser(p, target, exclude, 0)
			for _, limit := range []int{0, 1, 2, 4, n} {
				if got, want := h.CountCloser(p, target, exclude, limit), min(count, limit+1); got != want {
					t.Fatalf("n=%d p=%v limit %d: CountCloser %d, want %d (count %d)", n, p, limit, got, want, count)
				}
			}
		}
	}
}

// dupService is a 600-tuple clustered database with a "pop" attribute
// in which every tenth tuple repeats an earlier tuple's location, so
// equal-distance ties are common.
func dupService(seed int64) *lbs.Service {
	db := smallService2(600, seed)
	tuples := make([]lbs.Tuple, db.Len())
	for i := range tuples {
		tuples[i] = *db.Tuple(i)
		tuples[i].Attrs = map[string]float64{"pop": float64(i % 17)}
		if i > 0 && i%10 == 0 {
			tuples[i].Loc = tuples[i/2].Loc
		}
	}
	return lbs.NewService(lbs.NewDatabase(db.Bounds(), tuples), lbs.Options{K: 5})
}

// TestLRHistoryIndexMatchesReference runs DefaultLROptions LR twice per
// seed, over the grid-indexed history and over the whole-history
// reference: per-sample outputs, query counts and LRStats must be
// identical. One configuration restricts the estimation to a
// sub-region, so history sightings fall outside the grid.
func TestLRHistoryIndexMatchesReference(t *testing.T) {
	aggs := []Aggregate{Count(), SumAttr("pop")}
	for _, region := range []geom.Rect{{}, geom.NewRect(geom.Pt(20, 30), geom.Pt(70, 60))} {
		for seed := int64(1); seed <= 3; seed++ {
			run := func(reference bool) ([][]float64, int64, LRStats) {
				svc := dupService(100 + seed)
				opts := DefaultLROptions(seed)
				opts.Region = region
				agg := NewLRAggregator(svc, opts)
				if reference {
					agg.hist = newLinearHistory()
				}
				var outs [][]float64
				for i := 0; i < 60; i++ {
					out, err := agg.Step(context.Background(), aggs)
					if err != nil {
						t.Fatal(err)
					}
					outs = append(outs, out)
				}
				return outs, svc.QueryCount(), agg.Stats()
			}
			gotOut, gotQ, gotStats := run(false)
			wantOut, wantQ, wantStats := run(true)
			if !reflect.DeepEqual(gotOut, wantOut) {
				t.Fatalf("region %v seed %d: per-sample outputs differ from the reference", region, seed)
			}
			if gotQ != wantQ {
				t.Fatalf("region %v seed %d: %d queries, reference %d", region, seed, gotQ, wantQ)
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("region %v seed %d: stats %+v, reference %+v", region, seed, gotStats, wantStats)
			}
		}
	}
}

// refChooser is the reference for LRAggregator.chooseH: the adaptive
// rule over a seed always built to the full depth k, as it was before
// seeds were built only as deep as the decision needs. It keeps its
// own seed storage and h tally, so it runs beside the aggregator's
// own chooseH without disturbing it.
type refChooser struct {
	a     *LRAggregator
	seeds []*cell.Complex
	hs    map[int]int
}

func (r *refChooser) chooseH(i int, tID int64, tLoc geom.Point) (int, *cell.Complex) {
	a := r.a
	k := a.opts.UseK
	var seed *cell.Complex
	if a.opts.UseHistory && a.hist.Len() > 1 {
		if i == len(r.seeds) {
			r.seeds = append(r.seeds, cell.New(a.bound.Polygon(), k))
		}
		seed = r.seeds[i]
		seed.Reset(k)
		a.hist.InsertInto(seed, tLoc, tID)
	}
	if a.opts.FixedH > 0 {
		return min(a.opts.FixedH, k), seed
	}
	if seed == nil || k < 2 {
		return 1, seed
	}
	lambda0 := a.opts.Lambda0Frac * a.bound.Area()
	h := 1
	for cand := 2; cand <= k; cand++ {
		if seed.AreaAtMost(cand) <= lambda0 {
			h = cand
		} else {
			break
		}
	}
	r.hs[h]++
	return h, seed
}

// sameRegion reports whether two complexes hold bitwise-identical
// faces in the same order and the same cached area. Their cut
// registries may differ: a shallower seed registers fewer cuts.
func sameRegion(a, b *cell.Complex) bool {
	fa, fb := a.Faces(), b.Faces()
	if a.K() != b.K() || len(fa) != len(fb) || math.Float64bits(a.Area()) != math.Float64bits(b.Area()) {
		return false
	}
	for i := range fa {
		if fa[i].Count != fb[i].Count || !slices.Equal(fa[i].Poly, fb[i].Poly) {
			return false
		}
	}
	return true
}

// step is LRAggregator.Step with the reference chooseH weighting the
// tuples. At every choice it also runs the aggregator's own chooseH
// and fails unless both pick the same h and the same top-h region.
func (r *refChooser) step(t *testing.T, ctx context.Context, aggs []Aggregate) []float64 {
	t.Helper()
	a := r.a
	recs, err := a.query(ctx, a.smp.Sample(a.rng))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(aggs))
	if len(recs) == 0 {
		a.stats.EmptyAnswers++
		a.stats.Samples++
		return out
	}
	kUse := min(a.opts.UseK, len(recs))
	hs := make([]int, kUse)
	seeds := make([]*cell.Complex, kUse)
	for i := 0; i < kUse; i++ {
		hs[i], seeds[i] = r.chooseH(i, recs[i].ID, recs[i].Loc)
		h, seed := a.chooseH(i, recs[i].ID, recs[i].Loc)
		if h != hs[i] {
			t.Fatalf("rank %d: chooseH picked h=%d, reference %d", i, h, hs[i])
		}
		if (seed == nil) != (seeds[i] == nil) || seed != nil && !sameRegion(seed.WithK(h), seeds[i].WithK(h)) {
			t.Fatalf("rank %d h=%d: seed.WithK(h) differs from the reference", i, h)
		}
	}
	a.observe(recs, nil)
	for i := 0; i < kUse; i++ {
		if i+1 > hs[i] {
			continue
		}
		w, err := a.computeWeight(ctx, recs[i].ID, recs[i].Loc, hs[i], recs, seeds[i])
		if err != nil {
			t.Fatal(err)
		}
		rec := recordOfLR(recs[i])
		for j := range aggs {
			out[j] += aggs[j].Value(rec) * w
		}
	}
	a.stats.Samples++
	return out
}

// TestLRShallowSeedsMatchDepthK pins chooseH's depth-on-demand seeds
// against the always-depth-k reference: at every choice the same h and
// the same seed.WithK(h) region, and per run the same per-sample
// outputs, query counts and LRStats (AdaptiveHChosen included) as a
// run weighting through the reference. The adaptive runs choose both
// h = 1 and h ≥ 2; the FixedH runs cover h < k and h = k.
func TestLRShallowSeedsMatchDepthK(t *testing.T) {
	aggs := []Aggregate{Count(), SumAttr("pop")}
	type config struct {
		seed    int64
		lambda0 float64
		fixedH  int
		region  geom.Rect
	}
	configs := []config{
		{seed: 1}, {seed: 2, lambda0: 0.01}, {seed: 3, lambda0: 0.05},
		{seed: 4, lambda0: 0.01, region: geom.NewRect(geom.Pt(20, 30), geom.Pt(70, 60))},
		{seed: 5, fixedH: 2}, {seed: 6, fixedH: 5},
	}
	adaptive := map[int]int{}
	for _, cfg := range configs {
		opts := DefaultLROptions(cfg.seed)
		opts.Lambda0Frac, opts.FixedH, opts.Region = cfg.lambda0, cfg.fixedH, cfg.region
		ctx := context.Background()
		gotSvc, wantSvc := dupService(200+cfg.seed), dupService(200+cfg.seed)
		got := NewLRAggregator(gotSvc, opts)
		ref := &refChooser{a: NewLRAggregator(wantSvc, opts), hs: map[int]int{}}
		for i := 0; i < 60; i++ {
			out, err := got.Step(ctx, aggs)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.step(t, ctx, aggs); !slices.Equal(out, want) {
				t.Fatalf("%+v sample %d: outputs %v, reference %v", cfg, i, out, want)
			}
			if g, w := gotSvc.QueryCount(), wantSvc.QueryCount(); g != w {
				t.Fatalf("%+v sample %d: %d queries, reference %d", cfg, i, g, w)
			}
		}
		if st := got.Stats(); !reflect.DeepEqual(st, ref.a.Stats()) {
			t.Fatalf("%+v: stats %+v, reference %+v", cfg, st, ref.a.Stats())
		}
		if cfg.fixedH == 0 && !reflect.DeepEqual(got.Stats().AdaptiveHChosen, ref.hs) {
			t.Fatalf("%+v: AdaptiveHChosen %v, reference %v", cfg, got.Stats().AdaptiveHChosen, ref.hs)
		}
		for h, n := range ref.hs {
			adaptive[h] += n
		}
	}
	if adaptive[1] == 0 || len(adaptive) < 3 {
		t.Fatalf("adaptive runs chose h %v; want h = 1 and at least two h ≥ 2", adaptive)
	}
}
