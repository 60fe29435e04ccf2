package lbs

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// CandidateCount returns how many distance candidates one logical
// query needs from a candidate source for the receiver's selection to
// be applied exactly over them: K under distance rank, the K×overfetch
// candidate pool under prominence rank. The receiver must be
// normalized (Normalized); composite fronts — the federation Router,
// the live overlay — size their member services with it.
func (o Options) CandidateCount() int {
	if o.Rank == RankByProminence {
		return o.K * o.ProminenceOverfetch
	}
	return o.K
}

// RankDist is the Euclidean merge key of composite fronts: the
// distance from q to a candidate's effective location, computed
// exactly as the k-d tree computes it (Sqrt of Dist2, not Hypot), so
// a merged ordering reproduces the per-source — and therefore the
// union service's — ordering bit for bit. (LRRecord.Dist is the
// Hypot-computed wire distance; the two can differ in the last ulp,
// which is why it is not the merge key.) Metric-aware fronts use
// Options.RankDist, which degrades to this exact expression under
// geo.Euclidean.
func RankDist(q geom.Point, rec *LRRecord) float64 {
	return math.Sqrt(q.Dist2(rec.Loc))
}

// RankDist is the metric-aware merge key: geo.Metric.Dist evaluates
// the same canonical expression the k-d tree ranks with under either
// metric (Sqrt∘Dist2 for Euclidean, the canonical Haversine for
// geodesic), so merged orderings stay bit-identical to single-service
// orderings in both modes.
func (o Options) RankDist(q geom.Point, rec *LRRecord) float64 {
	return o.Metric.Dist(q, rec.Loc)
}

// Ranked is one distance-ranked candidate: an answer record with the
// rank distance it orders by — the k-d tree's distance, which is
// bitwise Options.RankDist of the record (and under Haversine also
// bitwise Rec.Dist).
type Ranked struct {
	Rec  LRRecord
	Dist float64
}

// rankedLess is the candidate order of the service contract: by rank
// distance, exact ties by ID.
func rankedLess(a, b *Ranked) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Rec.ID < b.Rec.ID
}

// MergeRanked merges distance-ranked candidate answers from disjoint
// sources into the exact answer a single Service over the union
// database gives: candidates order by (RankDist, ID) — the service
// ordering contract — the top CandidateCount survive, and the logical
// selection of norm is re-applied (see MergeCandidates).
//
// Each list must be a (dist, ID)-ranked prefix of its source's
// eligible tuples of length ≥ min(CandidateCount, source size), as
// Service.QueryLR returns when the source's K is the caller's
// CandidateCount; sources must hold pairwise-disjoint tuple sets.
// norm must be normalized (Options.Normalized). A list that is not in
// (RankDist, ID) order from q — a cache with a positive Quantum
// replays an answer ranked from a neighboring point — is sorted
// first, so the merge equals sorting the concatenation in every case.
func MergeRanked(q geom.Point, norm Options, lists ...[]LRRecord) []LRRecord {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	all := make([]Ranked, 0, n)
	ranked := make([][]Ranked, len(lists))
	for li, l := range lists {
		start := len(all)
		for i := range l {
			all = append(all, Ranked{Rec: l[i], Dist: norm.RankDist(q, &l[i])})
		}
		r := all[start:len(all):len(all)]
		for i := 1; i < len(r); i++ {
			if rankedLess(&r[i], &r[i-1]) {
				sort.Slice(r, func(a, b int) bool { return rankedLess(&r[a], &r[b]) })
				break
			}
		}
		ranked[li] = r
	}
	return MergeCandidates(norm, ranked...)
}

// MergeCandidates is MergeRanked over lists that already carry their
// rank distances, each in (Dist, ID) order (as Service.QueryRanked
// returns them). It is a linear k-way merge: it takes the
// CandidateCount smallest heads in (Dist, ID) order, then applies the
// logical selection of norm — the top K by distance, or prominence
// re-scoring by (score, ID) over the candidate pool, exactly the
// selection a single Service applies.
func MergeCandidates(norm Options, lists ...[]Ranked) []LRRecord {
	want := 0
	for _, l := range lists {
		want += len(l)
	}
	if cc := norm.CandidateCount(); want > cc {
		want = cc
	}
	// heads[i] is the position of list i's next candidate; a fixed
	// buffer covers the usual few lists without allocating.
	var headBuf [8]int
	heads := headBuf[:]
	if len(lists) > len(headBuf) {
		heads = make([]int, len(lists))
	}
	next := func() *Ranked {
		best := -1
		for i, l := range lists {
			if heads[i] < len(l) && (best < 0 || rankedLess(&l[heads[i]], &lists[best][heads[best]])) {
				best = i
			}
		}
		r := &lists[best][heads[best]]
		heads[best]++
		return r
	}
	if norm.Rank != RankByProminence {
		out := make([]LRRecord, want)
		for i := range out {
			out[i] = next().Rec
		}
		return out
	}
	type scored struct {
		c     *Ranked
		score float64
	}
	ss := make([]scored, want)
	for i := range ss {
		c := next()
		var attr float64
		if c.Rec.Attrs != nil {
			attr = c.Rec.Attrs[norm.ProminenceAttr]
		}
		ss[i] = scored{c: c, score: c.Dist - norm.ProminenceWeight*attr}
	}
	sort.Slice(ss, func(a, b int) bool {
		if ss[a].score != ss[b].score {
			return ss[a].score < ss[b].score
		}
		return ss[a].c.Rec.ID < ss[b].c.Rec.ID
	})
	k := len(ss)
	if k > norm.K {
		k = norm.K
	}
	out := make([]LRRecord, k)
	for i := range out {
		out[i] = ss[i].c.Rec
	}
	return out
}

// StripLocations converts an LR answer to its rank-only (LNR) view —
// how composite fronts (the Router, the live overlay) derive their LNR
// answers from the internally merged LR candidates.
func StripLocations(recs []LRRecord) []LNRRecord {
	out := make([]LNRRecord, len(recs))
	for i, rec := range recs {
		out[i] = LNRRecord{
			ID:       rec.ID,
			Name:     rec.Name,
			Category: rec.Category,
			Attrs:    rec.Attrs,
			Tags:     rec.Tags,
		}
	}
	return out
}
