package live_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/churn"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// TestLiveMutatedTieEquivalence is the Euclidean run of
// checkHotTieEquivalence. The k-d search admits a point when
// d² ≤ maxDist², and fl(sqrt(d²))² can fall below d², so a delta
// search bounded at the base's last candidate distance as is would
// miss a delta tuple tied with that candidate; the off-location query
// points include such distances.
func TestLiveMutatedTieEquivalence(t *testing.T) {
	checkHotTieEquivalence(t, lbs.Options{K: 5, MaxRadius: 1.5}, lbs.Options{
		K: 4, MaxRadius: 1.5, Rank: lbs.RankByProminence, ProminenceAttr: "rating", ProminenceWeight: 2})
}

// checkHotTieEquivalence runs a churned overlay over GeoUS points with
// fifteen hot locations, each carrying seven base tuples, under each
// of opts. The first Apply tombstones one of them and moves low-ID
// base tuples and inserts high-ID tuples onto them, so base and delta
// tie exactly — at distance 0 when queried there, at one shared
// distance when queried off it — and the delta search bound (the
// base's last candidate distance) must admit the delta's ties for the
// (dist, ID) order to pick them. Churn follows in three batches. After
// every Apply and after Compact, QueryLR, QueryLNR and both batch
// calls must equal a fresh lbs.Service over Snapshot() and over the
// model.
func checkHotTieEquivalence(t *testing.T, opts ...lbs.Options) {
	t.Helper()
	geoUS := workload.GeoUS(1200, 5, workload.DensityGauss)
	var tuples []lbs.Tuple
	for i := 0; i < geoUS.DB.Len(); i++ {
		tuples = append(tuples, *geoUS.DB.Tuple(i))
	}
	var hot []geom.Point
	for j := 0; j < 15; j++ {
		base := tuples[j*70]
		hot = append(hot, base.Loc)
		for c := 0; c < 6; c++ {
			dup := base
			dup.ID = int64(10_000 + 10*j + c)
			tuples = append(tuples, dup)
		}
	}
	// Query points: each hot location, 0.3° east of it and four points
	// within 0.05° of it — where the hot tuples are the nearest — whose
	// Euclidean squared distance d² to it has fl(sqrt(d²))² < d².
	orng := rand.New(rand.NewSource(3))
	var hotPts []geom.Point
	for _, loc := range hot {
		hotPts = append(hotPts, loc, geom.Pt(loc.X+0.3, loc.Y))
		for n := 0; n < 4; {
			q := geom.Pt(loc.X+0.1*orng.Float64()-0.05, loc.Y+0.1*orng.Float64()-0.05)
			if d2 := q.Dist2(loc); math.Sqrt(d2)*math.Sqrt(d2) < d2 {
				hotPts = append(hotPts, q)
				n++
			}
		}
	}
	db := lbs.NewDatabase(geoUS.Bounds, tuples)
	for _, o := range opts {
		name := "distance"
		if o.Rank == lbs.RankByProminence {
			name = "prominence"
		}
		t.Run(name, func(t *testing.T) {
			d, err := live.New(db, o, live.Options{CompactThreshold: -1})
			if err != nil {
				t.Fatal(err)
			}
			m := modelOf(db)
			var hotOps []live.Op
			for j, loc := range hot {
				hotOps = append(hotOps,
					live.Op{Kind: live.OpDelete, ID: int64(10_000 + 10*j)},
					live.Op{Kind: live.OpMove, ID: int64(j*70 + 35), Loc: loc},
					live.Op{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: int64(1_000_000 + j), Loc: loc,
						Attrs: map[string]float64{"rating": 4}}})
			}
			rng := rand.New(rand.NewSource(12))
			ctx := context.Background()
			// Both references: the independent model and the database's
			// own materialized Snapshot().
			check := func(label string) {
				t.Helper()
				want := m.db()
				pts := append(queryPoints(rng, want, 20), hotPts...)
				checkAgainst(t, label+" vs model", d, want, o, pts, nil)
				checkAgainst(t, label+" vs Snapshot", d, d.Snapshot(), o, pts, nil)
				if got := d.Len(); got != want.Len() {
					t.Fatalf("%s: Len %d, want %d", label, got, want.Len())
				}
			}
			apply := func(label string, ops []live.Op) {
				t.Helper()
				for i, r := range d.Apply(ctx, ops) {
					if r.Err != nil {
						t.Fatalf("%s: op %d rejected: %v", label, i, r.Err)
					}
				}
				for _, op := range ops {
					m.apply(t, op)
				}
				check(label)
			}
			apply("hot", hotOps)
			ops := churn.Ops(m.db(), churn.Config{Seed: 43}, 90)
			apply("churn 1", ops[:40])
			apply("churn 2", ops[40:41])
			apply("churn 3", ops[41:])
			if st := d.Stats(); st.Tombstones == 0 || st.DeltaLen == 0 {
				t.Fatalf("overlay not dirty in both parts: %+v", st)
			}
			d.Compact()
			if st := d.Stats(); st.Tombstones != 0 || st.DeltaLen != 0 {
				t.Fatalf("overlay after Compact: %+v", st)
			}
			check("compacted")
		})
	}
}
