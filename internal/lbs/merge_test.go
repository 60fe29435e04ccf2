package lbs

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/geom"
)

// mergeRankedRef is the concatenate-and-sort merge MergeRanked
// replaced: every candidate keyed by RankDist, one global sort by
// (dist, ID), the top CandidateCount kept, then the logical selection.
// It is the reference the linear k-way merge is pinned against.
func mergeRankedRef(q geom.Point, norm Options, lists ...[]LRRecord) []LRRecord {
	type cand struct {
		rec  LRRecord
		dist float64
	}
	var cands []cand
	for _, l := range lists {
		for i := range l {
			cands = append(cands, cand{rec: l[i], dist: norm.RankDist(q, &l[i])})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].rec.ID < cands[b].rec.ID
	})
	if want := norm.CandidateCount(); len(cands) > want {
		cands = cands[:want]
	}
	if norm.Rank == RankByProminence {
		type scored struct {
			i     int
			id    int64
			score float64
		}
		ss := make([]scored, len(cands))
		for i := range cands {
			var attr float64
			if cands[i].rec.Attrs != nil {
				attr = cands[i].rec.Attrs[norm.ProminenceAttr]
			}
			ss[i] = scored{i: i, id: cands[i].rec.ID, score: cands[i].dist - norm.ProminenceWeight*attr}
		}
		sort.Slice(ss, func(a, b int) bool {
			if ss[a].score != ss[b].score {
				return ss[a].score < ss[b].score
			}
			return ss[a].id < ss[b].id
		})
		k := len(ss)
		if k > norm.K {
			k = norm.K
		}
		out := make([]LRRecord, k)
		for i := 0; i < k; i++ {
			out[i] = cands[ss[i].i].rec
		}
		return out
	}
	k := len(cands)
	if k > norm.K {
		k = norm.K
	}
	out := make([]LRRecord, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].rec
	}
	return out
}

// TestMergeRankedMatchesReference is the differential test of the
// linear k-way merge: random candidate lists — 1 to 5 per merge (9 to
// 12 in one merge in sixteen), empty ones included, drawn from a coarse location grid so that exact
// (dist) ties across lists are common and only the ID breaks them —
// merge identically to the concatenate-and-sort reference under both
// metrics and both rank modes. Lists arrive in (RankDist, ID) order
// (the documented precondition) except in one merge in eight, where
// one list is shuffled, as a quantized cache's replayed answer can be.
func TestMergeRankedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, metric := range []geo.Metric{geo.Euclidean, geo.Haversine} {
		for _, rank := range []RankMode{RankByDistance, RankByProminence} {
			norm, err := Options{K: 1, Metric: metric, Rank: rank,
				ProminenceAttr: "rating", ProminenceWeight: 0.5, ProminenceOverfetch: 3}.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 500; trial++ {
				norm.K = 1 + r.Intn(6)
				q := geom.Pt(float64(r.Intn(5)), 40+float64(r.Intn(5)))
				nextID := int64(r.Intn(3))
				nl := 1 + r.Intn(5)
				if trial%16 == 15 {
					nl = 9 + r.Intn(4) // past MergeCandidates' fixed head buffer
				}
				lists := make([][]LRRecord, nl)
				for li := range lists {
					n := r.Intn(2 * norm.CandidateCount())
					l := make([]LRRecord, n)
					for i := range l {
						// Grid locations give exact distance ties; IDs stay
						// disjoint across lists but interleave.
						nextID += 1 + int64(r.Intn(3))
						l[i] = LRRecord{ID: nextID, Loc: geom.Pt(float64(r.Intn(5))/2, 40+float64(r.Intn(5))/2)}
						if r.Intn(4) > 0 {
							l[i].Attrs = map[string]float64{"rating": float64(r.Intn(4))}
						}
					}
					sort.Slice(l, func(a, b int) bool {
						da, db := norm.RankDist(q, &l[a]), norm.RankDist(q, &l[b])
						if da != db {
							return da < db
						}
						return l[a].ID < l[b].ID
					})
					lists[li] = l
				}
				if trial%8 == 0 {
					l := lists[r.Intn(len(lists))]
					r.Shuffle(len(l), func(a, b int) { l[a], l[b] = l[b], l[a] })
				}
				want := mergeRankedRef(q, norm, lists...)
				got := MergeRanked(q, norm, lists...)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v rank %d trial %d (K=%d, %d lists): merge differs\ngot  %+v\nwant %+v",
						metric, rank, trial, norm.K, len(lists), got, want)
				}
			}
		}
	}
}
