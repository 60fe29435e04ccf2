package core

import (
	"context"
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
