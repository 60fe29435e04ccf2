package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// benchFixtureFiles writes the same 10k-tuple city as lbsgen JSON and
// as a .lbspack, returning both paths.
func benchFixtureFiles(b *testing.B, n int) (jsonPath, packPath string) {
	b.Helper()
	sc := workload.USASchools(n, 7)
	dir := b.TempDir()

	packPath = filepath.Join(dir, "city.lbspack")
	if err := WritePack(packPath, sc.DB, 0, 0, nil); err != nil {
		b.Fatal(err)
	}

	ds := Dataset{
		Scenario: sc.Name,
		MinX:     sc.Bounds.Min.X, MinY: sc.Bounds.Min.Y,
		MaxX: sc.Bounds.Max.X, MaxY: sc.Bounds.Max.Y,
	}
	for i := 0; i < sc.DB.Len(); i++ {
		tp := sc.DB.Tuple(i)
		ds.Tuples = append(ds.Tuples, DatasetTuple{
			ID: tp.ID, X: tp.Loc.X, Y: tp.Loc.Y,
			Name: tp.Name, Category: tp.Category, Attrs: tp.Attrs, Tags: tp.Tags,
		})
	}
	data, err := json.Marshal(ds)
	if err != nil {
		b.Fatal(err)
	}
	jsonPath = filepath.Join(dir, "city.json")
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		b.Fatal(err)
	}
	return jsonPath, packPath
}

// BenchmarkColdStartJSON10k is the restart path without the store:
// re-parse the lbsgen JSON export and rebuild the index from scratch.
func BenchmarkColdStartJSON10k(b *testing.B) {
	jsonPath, _ := benchFixtureFiles(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := LoadDataset(jsonPath, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if db.Len() != 10_000 {
			b.Fatal("bad load")
		}
	}
}

// BenchmarkWarmStartPack10k is the same restart through the store: a
// paged scan of the pack into the index, no JSON in sight.
func BenchmarkWarmStartPack10k(b *testing.B) {
	_, packPath := benchFixtureFiles(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := LoadDataset(packPath, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if db.Len() != 10_000 {
			b.Fatal("bad load")
		}
	}
}

// BenchmarkPackScanBoundedPool streams a pack through a buffer pool
// far smaller than the file — the larger-than-RAM shape: every page
// faults, decodes and evicts, and throughput is the page pipeline.
func BenchmarkPackScanBoundedPool(b *testing.B) {
	_, packPath := benchFixtureFiles(b, 10_000)
	var m Metrics
	p, err := OpenPack(packPath, 4, &m)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := p.Scan(func(lbs.Tuple, geom.Point) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 10_000 {
			b.Fatal("short scan")
		}
	}
	b.ReportMetric(float64(10_000), "tuples/scan")
}

// walAppendRun is how many batches BenchmarkWALAppend applies to one
// store before it opens a fresh one.
const walAppendRun = 200

// BenchmarkWALAppend measures the durable-mutation hot path: one
// insert batch journaled (unsynced) per iteration. Compaction is off,
// so the overlay — and with it the cost of each Apply's snapshot —
// grows with every batch; a fresh store is opened every walAppendRun
// iterations with the timer stopped, so every iteration applies onto
// an overlay of fewer than walAppendRun batches and the per-op cost
// does not depend on b.N.
func BenchmarkWALAppend(b *testing.B) {
	base := workload.USASchools(1000, 7).DB
	var st *Store
	var db *live.Database
	reopen := func() {
		if st != nil {
			st.Live().Close()
		}
		var err error
		if st, err = Open(b.TempDir(), Options{}); err != nil {
			b.Fatal(err)
		}
		db, err = st.OpenLive(func() *lbs.Database { return base }, lbs.Options{K: 5}, live.Options{CompactThreshold: -1})
		if err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%walAppendRun == 0 {
			b.StopTimer()
			reopen()
			b.StartTimer()
		}
		ops := insertOps(100_000+i*8, 8)
		for _, r := range db.Apply(ctx, ops) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.StopTimer()
	st.Live().Close()
}
