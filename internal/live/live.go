// Package live adds mutation to the otherwise immutable LBS stack: a
// live.Database wraps an immutable lbs.Database with an LSM-style
// delta overlay — an insert buffer plus a tombstone bitset over base
// indices — merged into
// every answer inside the existing (dist, ID) ordering contract, so a
// live database with any overlay answers bit-identically to a plain
// lbs.Service over the materialized tuple set.
//
// Reads never block on writes: every query resolves one atomic
// snapshot pointer and computes entirely against immutable state
// (lbs.Database values, a frozen tombstone set). Mutations are
// serialized under a mutex, build a fresh snapshot copy-on-write and
// swap it in; a monotone epoch counter advances with every applied
// mutation, so two equal epochs always describe bit-identical
// contents. When the overlay outgrows a threshold, a background
// rebuilder compacts base+overlay into a fresh kd-tree-backed base and
// swaps it in — queries observe the swap only as the overlay emptying;
// the epoch (and the answers) do not change.
//
// Mutations rank inserts and moves at their given true location;
// obfuscation is a database-construction concern — callers wanting
// obfuscated effective locations apply the distortion before Apply.
package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// Mutation errors. Apply reports them per op; an op that fails leaves
// the database unchanged and does not advance the epoch.
var (
	// ErrUnknownID: delete or move of an ID not currently present.
	ErrUnknownID = errors.New("live: unknown tuple ID")
	// ErrDuplicateID: insert of an ID currently present.
	ErrDuplicateID = errors.New("live: duplicate tuple ID")
	// ErrOutOfRegion: cluster insert/move to a location no shard region
	// covers (outside the federation's bounds).
	ErrOutOfRegion = errors.New("live: location outside every shard region")
)

// OpKind selects what an Op does.
type OpKind uint8

const (
	// OpInsert adds Op.Tuple (its ID must not be present).
	OpInsert OpKind = iota
	// OpDelete removes the tuple with Op.ID.
	OpDelete
	// OpMove relocates the tuple with Op.ID to Op.Loc, keeping its
	// attributes. One move costs one epoch, not two.
	OpMove
)

// String names the kind for logs and wire encodings.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpMove:
		return "move"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one mutation.
type Op struct {
	Kind  OpKind
	Tuple lbs.Tuple  // OpInsert: the tuple to add
	ID    int64      // OpDelete, OpMove: the target tuple
	Loc   geom.Point // OpMove: the destination
}

// Result is the per-op outcome of Apply: the epoch the op applied at
// (the value Epoch reports once the op is visible), or the error that
// rejected it (Epoch then reports the last applied epoch).
type Result struct {
	Epoch uint64
	Err   error
}

// Mutator is the write surface of a live database — what the HTTP
// ingest endpoint and the churn workloads program against. Apply
// applies ops in order, each atomically; ops after a failed op are
// still attempted. Implementations are safe for concurrent use.
type Mutator interface {
	Apply(ctx context.Context, ops []Op) []Result
}

// Journal is the durability hook of a live database: Apply calls
// Append with each batch's applied ops — under the mutation lock,
// BEFORE the new snapshot becomes visible — so an implementation that
// persists the batch (internal/store's write-ahead log) makes every
// visible mutation recoverable. epochBefore is the database epoch the
// batch applies on top of; the ops are exactly the ones that
// succeeded, in order, each advancing the epoch by one. An Append
// error aborts the whole batch: nothing becomes visible, every op
// reports the journal error, and the epoch does not advance —
// durability failures are never silent.
//
// Append runs with the mutation lock held, so it serializes naturally
// against the journal owner's checkpointing; it must not call back
// into the database.
type Journal interface {
	Append(epochBefore uint64, ops []Op) error
}

// Options configures the mutable layer (the query semantics come from
// the lbs.Options passed to New).
type Options struct {
	// CompactThreshold is the overlay size (inserts + tombstones) that
	// triggers a background compaction into a fresh base. 0 means the
	// default (1024); negative disables compaction entirely.
	CompactThreshold int
	// InvalidationRadius, when positive, is the influence radius used
	// for dirty-region computation when the service has no MaxRadius.
	// Without a MaxRadius no finite radius is provably correct (a
	// mutation can change kNN answers arbitrarily far away in sparse
	// data), so this is an operator heuristic; leaving both zero makes
	// every mutation dirty the whole plane (full cache invalidation).
	InvalidationRadius float64
	// OnInvalidate, when set, is called after each Apply that changed
	// the database, with the dirty region: the bounding box of disks of
	// the influence radius around every mutated (old and new) effective
	// location. Query caches hook this to evict exactly the entries a
	// mutation could have staled. The callback runs outside the
	// mutation lock, after the new snapshot is visible — so answers
	// cached between swap and callback are already fresh and eviction
	// is only ever conservative.
	OnInvalidate func(geom.Rect)
	// Journal, when set, records every applied batch before it becomes
	// visible (write-ahead). See Journal. Recovery paths that replay a
	// journal into a fresh database construct it without one and attach
	// it afterwards via SetJournal, so the replay is not re-journaled.
	Journal Journal
	// StartEpoch is the epoch the database begins at — 0 for a fresh
	// database, the checkpoint epoch when reconstructing recovered
	// state, so replayed mutations land at exactly the epochs they
	// originally applied at.
	StartEpoch uint64
}

// Stats is a point-in-time snapshot of a live database's shape and
// mutation counters.
type Stats struct {
	Epoch       uint64 // applied mutations since construction
	BaseLen     int    // tuples in the immutable base
	DeltaLen    int    // tuples in the insert buffer
	Tombstones  int    // base tuples hidden by deletion/move
	Inserts     int64  // applied OpInserts
	Deletes     int64  // applied OpDeletes
	Moves       int64  // applied OpMoves
	Rejected    int64  // ops rejected with an error
	Compactions int64  // completed background compactions
	Compacting  bool   // a compaction is in flight
}

// snapshot is one immutable point-in-time state: queries resolve the
// pointer once and never look back. base and delta are immutable
// lbs.Databases; tomb is frozen (mutations copy it before changing).
type snapshot struct {
	epoch uint64
	base  *lbs.Database
	// full answers queries on a clean overlay: the base under the
	// database's complete logical options (fast path — zero merge
	// overhead when nothing has changed since the last compaction).
	full *lbs.Service
	// baseCand/deltaCand are distance-ranked candidate sources
	// (K = CandidateCount, shared MaxRadius, no budget) whose merged
	// answers reproduce a single service over the materialized tuples —
	// the same member-service construction the federation Router uses.
	baseCand *lbs.Service
	tomb     tombs
	// alive keeps the untombstoned base indices in baseCand's search
	// (nil without tombstones).
	alive       func(int) bool
	deltaTuples []lbs.Tuple
	deltaByID   map[int64]int
	deltaCand   *lbs.Service // nil when the insert buffer is empty
}

func (s *snapshot) clean() bool { return s.tomb.n == 0 && len(s.deltaTuples) == 0 }

// baseKeep is the index-level predicate of a dirty read's base search:
// untombstoned tuples that filter accepts (nil keeps every tuple).
func (s *snapshot) baseKeep(filter lbs.Filter) func(int) bool {
	if filter == nil {
		return s.alive
	}
	return func(i int) bool { return !s.tomb.has(i) && filter(s.base.Tuple(i)) }
}

// deltaKeep is baseKeep for the delta search, whose indices are
// positions in deltaTuples.
func (s *snapshot) deltaKeep(filter lbs.Filter) func(int) bool {
	if filter == nil {
		return nil
	}
	return func(i int) bool { return filter(&s.deltaTuples[i]) }
}

// tombs is the tombstone set of an overlay: a bitset over the indices
// of base tuples hidden by deletion or move, with its population.
// Snapshots hold frozen tombs; an Apply edits a private copy.
type tombs struct {
	bits []uint64
	n    int
}

// has reports whether base index i is tombstoned.
func (t *tombs) has(i int) bool {
	return i>>6 < len(t.bits) && t.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// add tombstones base index i of a base with baseLen tuples.
func (t *tombs) add(i, baseLen int) {
	if t.bits == nil {
		t.bits = make([]uint64, (baseLen+63)/64)
	}
	t.bits[i>>6] |= 1 << (uint(i) & 63)
	t.n++
}

// Database is a mutable LBS: an immutable base plus a delta overlay,
// queryable through the full lbs.Querier surface with the exact
// semantics of an lbs.Service over the current tuple set — ordering,
// MaxRadius coverage, prominence ranking, budget and batch-prefix
// behavior included. It additionally implements Mutator. Safe for
// concurrent use; queries are lock-free.
type Database struct {
	opts  lbs.Options // normalized logical options
	lopts Options
	meter *lbs.Meter
	snap  atomic.Pointer[snapshot]

	mu          sync.Mutex // serializes mutations and compaction bookkeeping
	cmu         sync.Mutex // serializes compaction passes (held across rebuilds)
	journal     Journal    // guarded by mu; nil = no durability hook
	oplog       []Op       // applied ops since the current base was built
	compacting  bool
	inserts     atomic.Int64
	deletes     atomic.Int64
	moves       atomic.Int64
	rejected    atomic.Int64
	compactions atomic.Int64
}

var (
	_ lbs.Querier = (*Database)(nil)
	_ Mutator     = (*Database)(nil)
)

const defaultCompactThreshold = 1024

// New builds a live database over an immutable base. opts are the
// logical service options (exactly as NewService takes them); lopts
// configures the mutable layer.
func New(base *lbs.Database, opts lbs.Options, lopts Options) (*Database, error) {
	norm, err := opts.Normalized()
	if err != nil {
		return nil, err
	}
	if lopts.CompactThreshold == 0 {
		lopts.CompactThreshold = defaultCompactThreshold
	}
	d := &Database{
		opts:    norm,
		lopts:   lopts,
		journal: lopts.Journal,
		meter:   lbs.NewMeter(norm.Budget, norm.Limiter),
	}
	d.snap.Store(d.buildSnapshot(base, lopts.StartEpoch, &overlay{}))
	return d, nil
}

// SetJournal attaches (or detaches, with nil) the durability hook.
// Recovery uses it: replay journal ops into a journal-less database,
// then attach the journal before serving mutations, so the replay is
// not recorded twice. It synchronizes with Apply — batches in flight
// finish under the journal they started with.
func (d *Database) SetJournal(j Journal) {
	d.mu.Lock()
	d.journal = j
	d.mu.Unlock()
}

// candOpts is the candidate-source configuration shared by base and
// delta services (see snapshot).
func (d *Database) candOpts() lbs.Options {
	return lbs.Options{K: d.opts.CandidateCount(), MaxRadius: d.opts.MaxRadius, Metric: d.opts.Metric}
}

// unmetered strips budget and limiter from the logical options: the
// live Database's own meter is the single accounting point, the
// internal services answer for free.
func (d *Database) unmetered() lbs.Options {
	o := d.opts
	o.Budget = 0
	o.Limiter = nil
	return o
}

// buildSnapshot assembles a snapshot from overlay state. The snapshot
// takes over o's tombstones and insert buffer (they are frozen from
// here on).
func (d *Database) buildSnapshot(base *lbs.Database, epoch uint64, o *overlay) *snapshot {
	s := &snapshot{
		epoch:       epoch,
		base:        base,
		full:        lbs.NewService(base, d.unmetered()),
		baseCand:    lbs.NewService(base, d.candOpts()),
		tomb:        o.tomb,
		deltaTuples: o.deltaTuples,
		deltaByID:   o.deltaByID,
	}
	if s.tomb.n > 0 {
		s.alive = func(i int) bool { return !s.tomb.has(i) }
	}
	if len(s.deltaTuples) > 0 {
		// Delta effective locations are the tuples' true locations (see
		// the package comment on obfuscation).
		locs := make([]geom.Point, len(s.deltaTuples))
		for i := range s.deltaTuples {
			locs[i] = s.deltaTuples[i].Loc
		}
		delta := lbs.NewDatabaseWithLocations(base.Bounds(), s.deltaTuples, locs)
		s.deltaCand = lbs.NewService(delta, d.candOpts())
	}
	return s
}

// Bounds implements lbs.Querier. The coverage region is fixed at
// construction; mutations happen within it.
func (d *Database) Bounds() geom.Rect { return d.snap.Load().base.Bounds() }

// K implements lbs.Querier.
func (d *Database) K() int { return d.opts.K }

// Metric returns the distance metric the live view ranks by.
func (d *Database) Metric() geo.Metric { return d.opts.Metric }

// Options returns the normalized logical options.
func (d *Database) Options() lbs.Options { return d.opts }

// QueryCount implements lbs.Querier: answered points, the paper's cost
// metric. Mutations are not queries and are never charged.
func (d *Database) QueryCount() int64 { return d.meter.Count() }

// ResetQueryCount zeroes the counter (between experiment runs).
func (d *Database) ResetQueryCount() { d.meter.Reset() }

// RemainingBudget reports how many queries the budget still covers
// (−1 = unlimited).
func (d *Database) RemainingBudget() int64 { return d.meter.Remaining() }

// VirtualWaited reports accumulated virtual rate-limit waiting time.
func (d *Database) VirtualWaited() time.Duration { return d.meter.VirtualWaited() }

// Epoch returns the mutation epoch: the number of applied mutations.
// The epoch identifies contents — two equal epochs from one Database
// always describe bit-identical tuple sets (compaction reorganizes
// storage without touching either). Bracketing a query between two
// Epoch calls that agree proves the answer was computed at exactly
// that epoch.
func (d *Database) Epoch() uint64 { return d.snap.Load().epoch }

// Snapshot returns the current contents materialized as an immutable
// lbs.Database (base tuples minus tombstones plus the insert buffer,
// effective locations carried over). It is built fresh on every call —
// ground-truth evaluation and tests use it; queries never do.
func (d *Database) Snapshot() *lbs.Database {
	return materialize(d.snap.Load())
}

// SnapshotAt is Snapshot plus the epoch the snapshot is at, read from
// the same atomic load so the pair is consistent even under concurrent
// mutation. Checkpointing uses it: the materialized database and the
// epoch it captures travel together into the on-disk pack header.
func (d *Database) SnapshotAt() (*lbs.Database, uint64) {
	s := d.snap.Load()
	return materialize(s), s.epoch
}

// Lookup returns a copy of the tuple with the given ID as currently
// visible, with its effective (ranking) location.
func (d *Database) Lookup(id int64) (lbs.Tuple, geom.Point, bool) {
	s := d.snap.Load()
	return lookup(s, id)
}

func lookup(s *snapshot, id int64) (lbs.Tuple, geom.Point, bool) {
	if i, ok := s.deltaByID[id]; ok {
		return s.deltaTuples[i], s.deltaTuples[i].Loc, true
	}
	if i, ok := s.base.IndexOf(id); ok && !s.tomb.has(i) {
		return *s.base.Tuple(i), s.base.EffectiveLoc(i), true
	}
	return lbs.Tuple{}, geom.Point{}, false
}

// Len returns the number of currently visible tuples.
func (d *Database) Len() int {
	s := d.snap.Load()
	return s.base.Len() - s.tomb.n + len(s.deltaTuples)
}

// Stats returns the database's shape and mutation counters.
func (d *Database) Stats() Stats {
	s := d.snap.Load()
	d.mu.Lock()
	compacting := d.compacting
	d.mu.Unlock()
	return Stats{
		Epoch:       s.epoch,
		BaseLen:     s.base.Len(),
		DeltaLen:    len(s.deltaTuples),
		Tombstones:  s.tomb.n,
		Inserts:     d.inserts.Load(),
		Deletes:     d.deletes.Load(),
		Moves:       d.moves.Load(),
		Rejected:    d.rejected.Load(),
		Compactions: d.compactions.Load(),
		Compacting:  compacting,
	}
}

// LiveStats is Stats under the name composite layers re-export it as
// (a Cluster promotes the Router's federation Stats, so the live
// counters need a distinct method name on every implementation).
func (d *Database) LiveStats() Stats { return d.Stats() }

// materialize flattens a snapshot into one immutable lbs.Database:
// surviving base tuples (with their effective locations) followed by
// the insert buffer. Answer-identical to the overlay by the merge
// contract; the kd-tree layout differs, which the (dist, ID) ordering
// makes unobservable.
func materialize(s *snapshot) *lbs.Database {
	n := s.base.Len() - s.tomb.n + len(s.deltaTuples)
	tuples := make([]lbs.Tuple, 0, n)
	locs := make([]geom.Point, 0, n)
	for i := 0; i < s.base.Len(); i++ {
		if s.tomb.has(i) {
			continue
		}
		tuples = append(tuples, *s.base.Tuple(i))
		locs = append(locs, s.base.EffectiveLoc(i))
	}
	for i := range s.deltaTuples {
		tuples = append(tuples, s.deltaTuples[i])
		locs = append(locs, s.deltaTuples[i].Loc)
	}
	return lbs.NewDatabaseWithLocations(s.base.Bounds(), tuples, locs)
}
