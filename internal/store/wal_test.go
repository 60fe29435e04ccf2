package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// tortureFixture builds a store directory with a pack and a WAL of
// several applied batches, and a model of the database at every batch
// boundary epoch.
type tortureFixture struct {
	pack   []byte
	wal    []byte
	models map[uint64]*lbs.Database // epoch -> expected content
	maxEp  uint64
}

func buildTortureFixture(t testing.TB) tortureFixture {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(dir, Options{PageSize: 512, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	gen := func() *lbs.Database { return workload.USASchools(30, 5).DB }
	db, err := st.OpenLive(gen, lbs.Options{K: 5}, live.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}

	fx := tortureFixture{models: map[uint64]*lbs.Database{}}
	snap, ep := db.SnapshotAt()
	fx.models[ep] = snap

	ctx := context.Background()
	b := db.Bounds()
	for batch := 0; batch < 5; batch++ {
		var ops []live.Op
		// Two inserts, one move of an earlier insert, one delete of a
		// base tuple — every op kind goes through the WAL codec.
		for i := 0; i < 2; i++ {
			id := int64(1000 + batch*10 + i)
			ops = append(ops, live.Op{Kind: live.OpInsert, Tuple: lbs.Tuple{
				ID:   id,
				Loc:  geom.Pt(b.Min.X+float64(batch)*0.01, b.Min.Y+float64(i)*0.01),
				Name: fmt.Sprintf("poi-%d", id),
				Attrs: map[string]float64{
					"enrollment": float64(id),
				},
			}})
		}
		if batch > 0 {
			ops = append(ops, live.Op{Kind: live.OpMove, ID: int64(1000 + (batch-1)*10),
				Loc: geom.Pt(b.Max.X-float64(batch)*0.01, b.Max.Y)})
			ops = append(ops, live.Op{Kind: live.OpDelete, ID: int64(batch)})
		}
		for _, r := range db.Apply(ctx, ops) {
			if r.Err != nil {
				t.Fatalf("batch %d: %v", batch, r.Err)
			}
		}
		snap, ep := db.SnapshotAt()
		fx.models[ep] = snap
		fx.maxEp = ep
	}

	// Crash: release the handle without checkpointing — the pack stays
	// at epoch 0 and the WAL holds everything.
	if err := st.Live().Close(); err != nil {
		t.Fatal(err)
	}
	fx.pack, err = os.ReadFile(filepath.Join(dir, packFile))
	if err != nil {
		t.Fatal(err)
	}
	fx.wal, err = os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// reopenTorture writes one (pack, wal-variant) pair into dir and
// reopens it, asserting the durability contract: either a typed
// *CorruptError, or a consistent prefix — the recovered database is
// byte-for-byte the model at the recovered epoch. It never panics and
// never returns a wrong answer.
func reopenTorture(t *testing.T, dir string, fx tortureFixture, walBytes []byte, label string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, packFile), fx.pack, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{PageSize: 512, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	gen := func() *lbs.Database {
		t.Fatalf("%s: gen called with a pack present", label)
		return nil
	}
	db, err := st.OpenLive(gen, lbs.Options{K: 5}, live.Options{CompactThreshold: -1})
	if err != nil {
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: err = %v, want *CorruptError", label, err)
		}
		return
	}
	defer st.Live().Close()
	rec := st.Live().Recovery()
	model, ok := fx.models[rec.Epoch]
	if !ok {
		t.Fatalf("%s: recovered to epoch %d, not a batch boundary", label, rec.Epoch)
	}
	got, ep := db.SnapshotAt()
	if ep != rec.Epoch {
		t.Fatalf("%s: snapshot epoch %d != recovery epoch %d", label, ep, rec.Epoch)
	}
	sameTuples(t, model, got)
}

func TestWALTortureTruncateEveryOffset(t *testing.T) {
	fx := buildTortureFixture(t)
	dir := t.TempDir()
	for cut := 0; cut <= len(fx.wal); cut++ {
		reopenTorture(t, dir, fx, fx.wal[:cut], fmt.Sprintf("truncate@%d", cut))
	}
}

func TestWALTortureFlipEveryByte(t *testing.T) {
	fx := buildTortureFixture(t)
	dir := t.TempDir()
	for off := 0; off < len(fx.wal); off++ {
		mut := append([]byte(nil), fx.wal...)
		mut[off] ^= 0x80
		reopenTorture(t, dir, fx, mut, fmt.Sprintf("flip@%d", off))
	}
}

func TestWALRecoversFullLog(t *testing.T) {
	fx := buildTortureFixture(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, packFile), fx.pack, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), fx.wal, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{PageSize: 512, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	db, err := st.OpenLive(func() *lbs.Database { return nil }, lbs.Options{K: 5}, live.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Live().Close()
	rec := st.Live().Recovery()
	if !rec.Warm {
		t.Fatal("want warm recovery")
	}
	if rec.Epoch != fx.maxEp {
		t.Fatalf("recovered epoch %d, want %d", rec.Epoch, fx.maxEp)
	}
	if rec.Frames != 5 {
		t.Fatalf("replayed %d frames, want 5", rec.Frames)
	}
	got, _ := db.SnapshotAt()
	sameTuples(t, fx.models[fx.maxEp], got)
	if st.Stats().RecoveredOps == 0 {
		t.Fatal("recovered_ops counter not fed")
	}
}
