// Package lbs simulates the location based services of the paper: a
// hidden database of located tuples reachable only through a
// restrictive kNN interface.
//
// Two interface views are provided over the same service:
//
//   - LR ("location returned"): QueryLR returns the top-k tuples with
//     their locations and attributes — the Google Maps / Bing Maps
//     model (§2.1).
//   - LNR ("location not returned"): QueryLNR returns only a ranked
//     list of tuple IDs and non-location attributes — the WeChat /
//     Sina Weibo model.
//
// The service also implements the real-world interface limitations the
// paper discusses: the top-k cap, a maximum coverage radius (queries
// with no tuple within dmax return empty, §5.3), a hard query budget
// standing in for API rate limits (§2.1), server-side selection
// pass-through (§5.1), optional location obfuscation (the WeChat
// behaviour observed in Figure 21), and an optional "prominence"
// ranking that mixes distance with a static popularity score (§5.3).
//
// The paper substitutes: the real services are replaced by this
// in-process simulator exposing exactly the same interface contract,
// so the estimation algorithms exercise the same code paths while the
// ground truth stays known.
//
// # Batch queries and caching
//
// Beyond the per-point QueryLR/QueryLNR calls, a Service answers
// multi-point batches (QueryLRBatch/QueryLNRBatch): m points are
// charged against the budget in one atomic reservation and metered
// through the rate limiter under one lock round-trip, so heavily
// concurrent clients amortize the per-query synchronization cost.
// Each answered point still counts as one query — batching buys
// round-trips, not budget.
//
// CachedOracle layers a concurrent sharded LRU cache over any Querier.
// Caching models *client-side memoization* of previously received
// answers — exactly what a polite client of a rate-limited API would
// keep — not a change to the simulated service contract: cache hits
// replay recorded answers without consuming budget or limiter quota,
// while misses pass through (and are charged) unchanged. Functional
// filters cannot be hashed, so filtered queries only use the cache
// when the wrapper declares its filter fixed (CacheOptions.
// TrustFilter); otherwise they bypass it, never replaying an answer
// across different selections.
package lbs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/kdtree"
)

// ErrBudgetExhausted is returned by queries once the configured query
// budget has been spent. Estimation drivers treat it as the signal to
// stop sampling and report.
var ErrBudgetExhausted = errors.New("lbs: query budget exhausted")

// Tuple is one hidden-database row: a located entity (POI or user)
// with its non-location attributes.
type Tuple struct {
	// ID is the stable public identifier (what an LNR interface leaks).
	ID int64
	// Loc is the true location.
	Loc geom.Point
	// Name and Category model the searchable attributes of map
	// services (e.g. Name="Starbucks", Category="restaurant").
	Name     string
	Category string
	// Attrs holds numeric attributes (rating, enrollment, review
	// count, prominence, ...).
	Attrs map[string]float64
	// Tags holds categorical attributes (gender, open_sunday, ...).
	Tags map[string]string
}

// Attr returns the named numeric attribute, or 0 when absent.
func (t *Tuple) Attr(name string) float64 {
	if t.Attrs == nil {
		return 0
	}
	return t.Attrs[name]
}

// Tag returns the named categorical attribute, or "" when absent.
func (t *Tuple) Tag(name string) string {
	if t.Tags == nil {
		return ""
	}
	return t.Tags[name]
}

// Database is an immutable collection of tuples within a bounding box,
// indexed for kNN search on the tuples' effective (possibly
// obfuscated) locations.
//
// Immutability contract: a Database never changes after its
// constructor returns. No method mutates tuples, effective locations
// or the index; callers must treat the Tuple pointers (and their
// shared Attrs/Tags maps) handed out by Tuple/ByID and by query
// answers as read-only. Every layer of the system leans on this —
// Service pools scratch around the index without locking, CachedOracle
// replays answer records by reference, shard.Partition hands effective
// locations across shards verbatim — so mutation support is built
// *around* databases, not into them: internal/live overlays a delta on
// an immutable base and swaps in freshly built Databases, it never
// edits one in place. Snapshot and Epoch make that contract explicit
// at the API surface.
type Database struct {
	bounds geom.Rect
	tuples []Tuple
	// effective per-tuple location used for ranking; equals the true
	// location unless obfuscation was applied.
	effective []geom.Point
	tree      *kdtree.Tree
	byID      map[int64]int
}

// Obfuscation describes how a service distorts the locations it ranks
// by, as location-based social networks do to protect user privacy.
// The effective location is the true location snapped to a grid of
// pitch GridSize (0 = no snapping) and then jittered uniformly in a
// disk of radius Jitter (0 = no jitter), deterministically per tuple
// given Seed.
type Obfuscation struct {
	GridSize float64
	Jitter   float64
	Seed     int64
}

func (o Obfuscation) enabled() bool { return o.GridSize > 0 || o.Jitter > 0 }

// apply returns the effective location for a tuple.
func (o Obfuscation) apply(rng *rand.Rand, p geom.Point) geom.Point {
	out := p
	if o.GridSize > 0 {
		out.X = (math.Floor(out.X/o.GridSize) + 0.5) * o.GridSize
		out.Y = (math.Floor(out.Y/o.GridSize) + 0.5) * o.GridSize
	}
	if o.Jitter > 0 {
		ang := rng.Float64() * 2 * math.Pi
		r := o.Jitter * math.Sqrt(rng.Float64())
		out.X += r * math.Cos(ang)
		out.Y += r * math.Sin(ang)
	}
	return out
}

// NewDatabase builds a database over the given tuples with no
// obfuscation. Tuples outside bounds are accepted but make the
// estimators' bounding region assumption invalid; workloads always
// generate within bounds.
func NewDatabase(bounds geom.Rect, tuples []Tuple) *Database {
	return NewObfuscatedDatabase(bounds, tuples, Obfuscation{})
}

// NewObfuscatedDatabase builds a database whose ranking locations are
// distorted by obf. The true locations remain stored for ground-truth
// evaluation (Figure 21 measures the distance between true and
// inferred positions).
func NewObfuscatedDatabase(bounds geom.Rect, tuples []Tuple, obf Obfuscation) *Database {
	db := &Database{
		bounds:    bounds,
		tuples:    tuples,
		effective: make([]geom.Point, len(tuples)),
		byID:      make(map[int64]int, len(tuples)),
	}
	rng := rand.New(rand.NewSource(obf.Seed))
	for i := range tuples {
		if obf.enabled() {
			db.effective[i] = bounds.Clamp(obf.apply(rng, tuples[i].Loc))
		} else {
			db.effective[i] = tuples[i].Loc
		}
		if _, dup := db.byID[tuples[i].ID]; dup {
			panic(fmt.Sprintf("lbs: duplicate tuple ID %d", tuples[i].ID))
		}
		db.byID[tuples[i].ID] = i
	}
	// The effective slice is private and never mutated after
	// construction, so the tree can take ownership without a copy.
	db.tree = kdtree.BuildOwned(db.effective)
	return db
}

// TupleSource is a scannable collection of tuples with their effective
// (ranking) locations — the read surface of a durable database file
// (internal/store's paged .lbspack packs implement it). Scan must
// visit every tuple exactly once, in a stable order, and stop at the
// first error the callback returns.
type TupleSource interface {
	Bounds() geom.Rect
	Len() int
	Scan(fn func(t Tuple, effective geom.Point) error) error
}

// PreorderedSource is a TupleSource whose scan order is the kd-tree
// preorder of the effective locations (what KDPreorder produces and
// the store's pack writer records). NewDatabaseFromStore exploits it
// to rebuild the index in O(n) — no median selection, the balanced
// shape is implicit in the order — which is the difference between a
// warm restart and a cold rebuild.
type PreorderedSource interface {
	TupleSource
	// KDPreordered reports whether Scan yields tuples in kd-tree
	// preorder of their effective locations.
	KDPreordered() bool
}

// NewDatabaseFromStore materializes an immutable Database from a
// durable tuple source: one paged scan collects tuples and effective
// locations, then the kd-tree is built exactly as
// NewDatabaseWithLocations would. Because the effective locations are
// carried over verbatim (never re-derived from an obfuscation seed),
// a database written to a store and read back answers every LR and
// LNR query bit-identically to the original. Unlike the in-memory
// constructors it returns an error instead of panicking: a corrupt or
// hand-edited file is a runtime condition, not a programming bug.
func NewDatabaseFromStore(src TupleSource) (*Database, error) {
	n := src.Len()
	db := &Database{
		bounds:    src.Bounds(),
		tuples:    make([]Tuple, 0, n),
		effective: make([]geom.Point, 0, n),
		byID:      make(map[int64]int, n),
	}
	// The byID index doubles as the duplicate check, so the scan stays
	// a single pass with a single map.
	err := src.Scan(func(t Tuple, eff geom.Point) error {
		if _, dup := db.byID[t.ID]; dup {
			return fmt.Errorf("lbs: store contains duplicate tuple ID %d", t.ID)
		}
		db.byID[t.ID] = len(db.tuples)
		db.tuples = append(db.tuples, t)
		db.effective = append(db.effective, eff)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ps, ok := src.(PreorderedSource); ok && ps.KDPreordered() {
		db.tree = kdtree.BuildPreordered(db.effective)
	} else {
		db.tree = kdtree.BuildOwned(db.effective)
	}
	return db, nil
}

// KDPreorder returns the tuple indices in the kd-tree's preorder.
// Persisting tuples in this order lets a reader hand the file back to
// kdtree.BuildPreordered and skip the O(n log n) build on reopen; the
// store's pack writer does exactly that.
func (db *Database) KDPreorder() []int { return db.tree.PreorderIndices() }

// NewDatabaseWithLocations builds a database whose ranking (effective)
// locations are supplied explicitly, index-aligned with tuples. It is
// the constructor federation partitioners use to split an obfuscated
// database: re-deriving effective locations from an Obfuscation seed
// is order-dependent, so a shard must carry over the exact effective
// locations of its parent database instead. The effective slice is
// copied; the caller keeps ownership of its argument.
func NewDatabaseWithLocations(bounds geom.Rect, tuples []Tuple, effective []geom.Point) *Database {
	if len(effective) != len(tuples) {
		panic(fmt.Sprintf("lbs: %d effective locations for %d tuples", len(effective), len(tuples)))
	}
	db := &Database{
		bounds:    bounds,
		tuples:    tuples,
		effective: append([]geom.Point(nil), effective...),
		byID:      make(map[int64]int, len(tuples)),
	}
	for i := range tuples {
		if _, dup := db.byID[tuples[i].ID]; dup {
			panic(fmt.Sprintf("lbs: duplicate tuple ID %d", tuples[i].ID))
		}
		db.byID[tuples[i].ID] = i
	}
	db.tree = kdtree.BuildOwned(db.effective)
	return db
}

// Snapshot returns a point-in-time immutable view of the database —
// the database itself, because an immutable Database *is* its own
// permanent snapshot. The method exists so code written against the
// snapshot-per-read discipline of mutable wrappers (internal/live)
// treats a plain Database uniformly, and costs nothing.
func (db *Database) Snapshot() *Database { return db }

// Epoch returns the database's mutation epoch: always 0, because an
// immutable Database never changes. Mutable overlays (internal/live)
// report a counter that advances with every applied mutation; two
// equal epochs from the same source always describe bit-identical
// contents.
func (db *Database) Epoch() uint64 { return 0 }

// Len returns the number of tuples.
func (db *Database) Len() int { return len(db.tuples) }

// Bounds returns the bounding box of the service's coverage region.
func (db *Database) Bounds() geom.Rect { return db.bounds }

// Tuple returns the i-th tuple (ground-truth access for evaluation
// only; the estimators never touch it).
func (db *Database) Tuple(i int) *Tuple { return &db.tuples[i] }

// ByID returns the tuple with the given public ID.
func (db *Database) ByID(id int64) (*Tuple, bool) {
	i, ok := db.byID[id]
	if !ok {
		return nil, false
	}
	return &db.tuples[i], true
}

// IndexOf returns the internal index of the tuple with the given
// public ID — the index Tuple and EffectiveLoc take and index-level
// exclusions (Service.QueryRanked) test.
func (db *Database) IndexOf(id int64) (int, bool) {
	i, ok := db.byID[id]
	return i, ok
}

// EffectiveLoc returns the ranking location of the i-th tuple
// (ground-truth access for evaluation).
func (db *Database) EffectiveLoc(i int) geom.Point { return db.effective[i] }

// EffectiveByID returns the ranking location of the tuple with the
// given public ID. Mutable overlays (internal/live) use it to bound
// the region a deletion can influence.
func (db *Database) EffectiveByID(id int64) (geom.Point, bool) {
	i, ok := db.byID[id]
	if !ok {
		return geom.Point{}, false
	}
	return db.effective[i], true
}

// Subsample returns a database over a uniformly random fraction of the
// tuples (the database-size sweep of Figure 18). frac is clamped to
// (0, 1]; the subsample is deterministic in seed.
func (db *Database) Subsample(frac float64, seed int64) *Database {
	if frac >= 1 {
		return db
	}
	if frac <= 0 {
		frac = 1e-9
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(db.tuples))
	n := int(math.Round(frac * float64(len(db.tuples))))
	if n < 1 {
		n = 1
	}
	picked := make([]Tuple, 0, n)
	for _, i := range perm[:n] {
		picked = append(picked, db.tuples[i])
	}
	sort.Slice(picked, func(a, b int) bool { return picked[a].ID < picked[b].ID })
	return NewDatabase(db.bounds, picked)
}

// GroundTruth evaluates an aggregate exactly over the database: the
// sum of value(t) over tuples satisfying cond (nil = all). Evaluation
// code uses it to compute relative errors.
func (db *Database) GroundTruth(value func(*Tuple) float64, cond func(*Tuple) bool) float64 {
	var s float64
	for i := range db.tuples {
		t := &db.tuples[i]
		if cond == nil || cond(t) {
			s += value(t)
		}
	}
	return s
}

// Count returns the number of tuples satisfying cond (nil = all).
func (db *Database) Count(cond func(*Tuple) bool) int {
	n := 0
	for i := range db.tuples {
		if cond == nil || cond(&db.tuples[i]) {
			n++
		}
	}
	return n
}

// RankMode selects how the service orders results.
type RankMode int

const (
	// RankByDistance is the standard kNN semantics (Euclidean
	// distance to the effective location).
	RankByDistance RankMode = iota
	// RankByProminence mixes distance with a static popularity score,
	// modelling the Google Places "prominence" ordering (§5.3): the
	// rank key is dist − ProminenceWeight·Attrs[ProminenceAttr],
	// evaluated over an over-fetched distance candidate set.
	RankByProminence
)

// Options configures a Service view over a database.
type Options struct {
	// K is the number of results per query (the interface's top-k).
	K int
	// Metric selects the distance function the service ranks by and
	// interprets MaxRadius in. The zero value (geo.Euclidean) is the
	// planar default and preserves the historical behavior bit for
	// bit; geo.Haversine treats coordinates as (lon°, lat°) and
	// measures in kilometers. Every layer of a deployment — member
	// services, federation routers, caches, clients — must agree on
	// the metric; the shard and live constructors thread it through
	// automatically.
	Metric geo.Metric
	// MaxRadius, when positive, caps how far returned tuples may be
	// from the query point; queries with no tuple within the radius
	// return an empty answer (the dmax constraint of §5.3).
	MaxRadius float64
	// Budget, when positive, is the total number of queries the
	// service will answer before returning ErrBudgetExhausted. It
	// models the per-user/IP rate limits of real services.
	Budget int64
	// Limiter, when set, meters queries through a virtual-clock rate
	// limiter; the accumulated virtual waiting time is reported by
	// VirtualWaited. Queries are never rejected by the limiter — they
	// just "take longer", exactly as a polite client sleeping between
	// calls would experience.
	Limiter *RateLimiter
	// Rank selects the ordering semantics.
	Rank RankMode
	// ProminenceAttr and ProminenceWeight parameterize
	// RankByProminence.
	ProminenceAttr   string
	ProminenceWeight float64
	// ProminenceOverfetch is the distance-candidate multiple used for
	// prominence re-ranking (default 4 when zero; negative values are
	// rejected).
	ProminenceOverfetch int
}

// defaultProminenceOverfetch is the candidate multiple used when
// Options.ProminenceOverfetch is left zero. A multiple below 1 would
// make every prominence query return an empty answer.
const defaultProminenceOverfetch = 4

// validate normalizes defaulted fields and rejects nonsensical
// configurations.
func (o *Options) validate() error {
	if o.K < 1 {
		return fmt.Errorf("lbs: Options.K must be ≥ 1, got %d", o.K)
	}
	if o.MaxRadius < 0 {
		return fmt.Errorf("lbs: Options.MaxRadius must be ≥ 0, got %g", o.MaxRadius)
	}
	if o.ProminenceOverfetch < 0 {
		return fmt.Errorf("lbs: Options.ProminenceOverfetch must be ≥ 0, got %d", o.ProminenceOverfetch)
	}
	if o.ProminenceOverfetch == 0 {
		o.ProminenceOverfetch = defaultProminenceOverfetch
	}
	return nil
}

// Normalized returns a copy of o with defaulted fields filled in
// (ProminenceOverfetch), or an error for nonsensical configurations —
// the same validation NewService applies, usable without constructing
// a service. Federation routers normalize their logical options
// through it so their selection semantics match a Service's exactly.
func (o Options) Normalized() (Options, error) {
	c := o
	if err := c.validate(); err != nil {
		return Options{}, err
	}
	return c, nil
}

// Querier is the query surface of a service view: point queries, batch
// queries and the metadata the estimators need. *Service implements
// it, and so do client-side wrappers such as CachedOracle; code
// written against Querier (the HTTP server, the estimation driver)
// accepts either. Implementations must be safe for concurrent use.
//
// Query points are not restricted to Bounds(): a query anywhere on
// the plane is answered from the full database, subject only to the
// MaxRadius coverage constraint — exactly how real map APIs behave
// when probed from outside their market. Bounds() is metadata for the
// estimators' sampling region, not an input domain, and every
// implementation (the simulator, wrappers, federation routers) must
// answer out-of-bounds points identically.
type Querier interface {
	QueryLR(ctx context.Context, q geom.Point, filter Filter) ([]LRRecord, error)
	QueryLNR(ctx context.Context, q geom.Point, filter Filter) ([]LNRRecord, error)
	QueryLRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LRRecord, error)
	QueryLNRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LNRRecord, error)
	Bounds() geom.Rect
	K() int
	QueryCount() int64
}

// Wrapper is implemented by queriers that decorate a single inner
// Querier (ScopedQuerier, CachedOracle). Observers walk wrapper chains
// through it — e.g. the HTTP stats endpoint probes every layer of a
// Scoped→Cached→Service stack for its optional stats interfaces.
// Multi-child compositions (a federation router) are deliberately not
// Wrappers: a chain walk ends there and the composite reports its own
// aggregated stats instead.
type Wrapper interface {
	Inner() Querier
}

// Service is a queryable kNN interface over a database. It is safe for
// concurrent use.
type Service struct {
	db    *Database
	opts  Options
	meter *Meter
	// scratch pools the per-query working set (kNN buffers, rank
	// indices, prominence rescoring) so an answered query allocates
	// nothing beyond the records returned to the caller.
	scratch sync.Pool
}

// queryScratch is the reusable working set of one ranked search.
type queryScratch struct {
	nbs    []kdtree.Neighbor
	ranked []kdtree.Neighbor
	scored promSorter
}

func (s *Service) getScratch() *queryScratch {
	if sc, ok := s.scratch.Get().(*queryScratch); ok {
		return sc
	}
	return &queryScratch{}
}

func (s *Service) putScratch(sc *queryScratch) { s.scratch.Put(sc) }

// promScored is one prominence-reranked candidate.
type promScored struct {
	nb    kdtree.Neighbor
	id    int64
	score float64
}

// promSorter sorts candidates by (score, ID); a named slice type so
// sort.Sort on a pooled pointer stays allocation-free. The tie-break
// is the tuple's public ID — not its internal index — so the ordering
// is a property of the data alone and a federated router merging
// candidates from several shards reproduces it exactly.
type promSorter []promScored

func (p promSorter) Len() int { return len(p) }
func (p promSorter) Less(a, b int) bool {
	if p[a].score != p[b].score {
		return p[a].score < p[b].score
	}
	return p[a].id < p[b].id
}
func (p promSorter) Swap(a, b int) { p[a], p[b] = p[b], p[a] }

var _ Querier = (*Service)(nil)

// NewService creates a service view. It panics on invalid options
// (K < 1, negative radius or overfetch) — misconfiguration, not a
// runtime condition.
func NewService(db *Database, opts Options) *Service {
	if err := opts.validate(); err != nil {
		panic(err.Error())
	}
	return &Service{db: db, opts: opts, meter: NewMeter(opts.Budget, opts.Limiter)}
}

// DB returns the underlying database (ground-truth access for
// evaluation harnesses).
func (s *Service) DB() *Database { return s.db }

// Options returns the service configuration.
func (s *Service) Options() Options { return s.opts }

// Metric returns the distance metric the service ranks by. The HTTP
// layer probes this through wrapper chains to report the active
// metric on /v1/meta and /v1/stats.
func (s *Service) Metric() geo.Metric { return s.opts.Metric }

// K returns the interface's top-k.
func (s *Service) K() int { return s.opts.K }

// Bounds returns the coverage bounding box.
func (s *Service) Bounds() geom.Rect { return s.db.bounds }

// QueryCount returns the number of queries answered so far (the
// paper's cost metric).
func (s *Service) QueryCount() int64 { return s.meter.Count() }

// ResetQueryCount zeroes the query counter (between experiment runs).
func (s *Service) ResetQueryCount() { s.meter.Reset() }

// RemainingBudget returns how many queries may still be issued, or −1
// for unlimited.
func (s *Service) RemainingBudget() int64 { return s.meter.Remaining() }

// VirtualDuration converts the queries issued so far into the
// wall-clock time a real service with the given per-hour rate limit
// would have required — e.g. Sina Weibo's 150/hour (§2.1).
func (s *Service) VirtualDuration(perHour int) time.Duration {
	if perHour <= 0 {
		return 0
	}
	return time.Duration(float64(s.QueryCount()) / float64(perHour) * float64(time.Hour))
}

// Filter is a server-side selection condition (pass-through, §5.1).
// A nil Filter accepts every tuple.
type Filter func(*Tuple) bool

// CategoryFilter matches tuples of the given category.
func CategoryFilter(category string) Filter {
	return func(t *Tuple) bool { return t.Category == category }
}

// NameFilter matches tuples with the given name.
func NameFilter(name string) Filter {
	return func(t *Tuple) bool { return t.Name == name }
}

// charge checks for cancellation, consumes one unit of budget and
// meters the rate limiter. The simulator answers instantly, so the
// context can only be observed between queries; network adapters
// additionally cancel the request in flight. The cost model itself
// (CAS budget reservation, one limiter round-trip per batch) lives in
// Meter, shared with every composite front.
func (s *Service) charge(ctx context.Context) error {
	return s.meter.Charge(ctx)
}

// chargeN reserves up to n units (see Meter.ChargeN).
func (s *Service) chargeN(ctx context.Context, n int64) (int64, error) {
	return s.meter.ChargeN(ctx, n)
}

// VirtualWaited returns the total virtual time a rate-limited client
// would have spent waiting (0 without a Limiter).
func (s *Service) VirtualWaited() time.Duration { return s.meter.VirtualWaited() }

// rankCandidates returns the `want` nearest tuples of q under the
// service's ordering contract: ascending distance, exact ties broken
// by ascending tuple ID. The k-d tree breaks ties by internal index,
// which is an artifact of construction order, so the raw search result
// is post-processed: equal-distance runs are reordered by ID, and when
// a tie straddles the selection boundary (common under grid-snapped
// obfuscation, where many tuples share an effective location) the
// search is escalated until every tuple tied at the boundary distance
// is visible, so the kept set is the one (dist, ID) selects. Making
// the ordering a property of the data alone is what lets a federation
// router merge per-shard answers into the exact single-service result.
// The returned slice aliases sc.nbs.
func (s *Service) rankCandidates(sc *queryScratch, q geom.Point, want int, kf func(int) bool, maxDist float64) []kdtree.Neighbor {
	fetch := want + 1 // +1 probes for a tie at the boundary
	for {
		nbs := s.db.tree.KNNWithinMetricInto(s.opts.Metric, q, fetch, maxDist, kf, sc.nbs)
		sc.nbs = nbs
		if len(nbs) <= want {
			// The whole eligible set fits: no selection to resolve.
			s.sortTiesByID(nbs)
			return nbs
		}
		bound := nbs[want-1].Dist
		switch {
		case nbs[want].Dist != bound:
			// Boundary unambiguous: the want-nearest set is unique.
			nbs = nbs[:want]
			s.sortTiesByID(nbs)
			return nbs
		case len(nbs) < fetch || nbs[len(nbs)-1].Dist != bound:
			// Every tuple tied at the boundary distance is in view:
			// order the tie run by ID and keep the first `want`.
			i := want - 1
			for i > 0 && nbs[i-1].Dist == bound {
				i--
			}
			j := want
			for j < len(nbs) && nbs[j].Dist == bound {
				j++
			}
			s.sortRunByID(nbs[i:j])
			nbs = nbs[:want]
			s.sortTiesByID(nbs[:i])
			return nbs
		default:
			// The tie run may extend past what was fetched: escalate.
			fetch *= 2
		}
	}
}

// sortTiesByID reorders every equal-distance run of an ascending
// neighbor list by tuple ID (insertion sort per run: runs are short,
// and the common no-tie case costs one comparison per element).
func (s *Service) sortTiesByID(nbs []kdtree.Neighbor) {
	for i := 0; i < len(nbs); {
		j := i + 1
		for j < len(nbs) && nbs[j].Dist == nbs[i].Dist {
			j++
		}
		if j-i > 1 {
			s.sortRunByID(nbs[i:j])
		}
		i = j
	}
}

// sortRunByID insertion-sorts one equal-distance run by tuple ID.
func (s *Service) sortRunByID(run []kdtree.Neighbor) {
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && s.db.tuples[run[j].Index].ID < s.db.tuples[run[j-1].Index].ID; j-- {
			run[j], run[j-1] = run[j-1], run[j]
		}
	}
}

// rawQueryInto runs the ranked search shared by both views, writing
// through the pooled scratch. It returns the selected tuples in rank
// order, each with its distance from q; the slice aliases the scratch
// and is valid until the scratch is reused.
//
// Ordering contract: distance rank orders by (dist, ID); prominence
// rank orders its distance-candidate set (the K×overfetch nearest
// under the same (dist, ID) selection) by (score, ID). Both are
// properties of the data alone — see rankCandidates.
func (s *Service) rawQueryInto(sc *queryScratch, q geom.Point, filter Filter) []kdtree.Neighbor {
	kf := func(i int) bool {
		return filter == nil || filter(&s.db.tuples[i])
	}
	if filter == nil {
		kf = nil
	}
	maxDist := math.Inf(1)
	if s.opts.MaxRadius > 0 {
		maxDist = s.opts.MaxRadius
	}
	if s.opts.Rank != RankByProminence {
		return s.rankCandidates(sc, q, s.opts.K, kf, maxDist)
	}
	cand := s.rankCandidates(sc, q, s.opts.K*s.opts.ProminenceOverfetch, kf, maxDist)
	scored := sc.scored[:0]
	for _, nb := range cand {
		t := &s.db.tuples[nb.Index]
		scored = append(scored, promScored{
			nb:    nb,
			id:    t.ID,
			score: nb.Dist - s.opts.ProminenceWeight*t.Attr(s.opts.ProminenceAttr),
		})
	}
	sc.scored = scored
	sort.Sort(&sc.scored)
	n := len(scored)
	if n > s.opts.K {
		n = s.opts.K
	}
	out := sc.ranked[:0]
	for i := 0; i < n; i++ {
		out = append(out, scored[i].nb)
	}
	sc.ranked = out
	return out
}

// LRRecord is one result row of the location-returned interface.
type LRRecord struct {
	ID       int64
	Loc      geom.Point // the service's (effective) location for the tuple
	Dist     float64    // distance from the query point to Loc
	Name     string
	Category string
	Attrs    map[string]float64
	Tags     map[string]string
}

// QueryLR answers a location-returned kNN query: the top-k tuples
// nearest q (per the service's ranking), each with its location. An
// empty non-nil slice means "no tuple within the coverage radius".
// Results are ordered by (distance, ID) — prominence rank by
// (score, ID) — so the ranking is a property of the data alone (see
// rankCandidates). q may lie outside Bounds(); see Querier.
func (s *Service) QueryLR(ctx context.Context, q geom.Point, filter Filter) ([]LRRecord, error) {
	if err := s.charge(ctx); err != nil {
		return nil, err
	}
	return s.answerLR(q, filter), nil
}

// answerLR computes one LR answer without charging; callers charge
// first.
func (s *Service) answerLR(q geom.Point, filter Filter) []LRRecord {
	sc := s.getScratch()
	out := s.answerLRWith(sc, q, filter)
	s.putScratch(sc)
	return out
}

// wireDist is the distance reported in LRRecord.Dist for a tuple the
// search ranked at rankDist. Euclidean stays the historical
// geom.Point.Dist (math.Hypot — which differs from the internal
// Sqrt(Dist2) rank key in the last ulp, a wire-format contract pinned
// by the store round-trip tests); Haversine reports great-circle
// kilometers, which the k-d tree computed with the canonical
// expression (geo.HaversineQuery.Dist), so the rank distance is
// reused as is.
func (o *Options) wireDist(q, loc geom.Point, rankDist float64) float64 {
	if o.Metric == geo.Haversine {
		return rankDist
	}
	return q.Dist(loc)
}

// record builds the LR answer row of the tuple a search ranked at nb.
func (s *Service) record(q geom.Point, nb kdtree.Neighbor) LRRecord {
	t := &s.db.tuples[nb.Index]
	loc := s.db.effective[nb.Index]
	return LRRecord{
		ID:       t.ID,
		Loc:      loc,
		Dist:     s.opts.wireDist(q, loc, nb.Dist),
		Name:     t.Name,
		Category: t.Category,
		Attrs:    t.Attrs,
		Tags:     t.Tags,
	}
}

// answerLRWith is answerLR over an explicit scratch (batch callers
// hold one scratch across the whole batch). Only the returned records
// are freshly allocated.
func (s *Service) answerLRWith(sc *queryScratch, q geom.Point, filter Filter) []LRRecord {
	nbs := s.rawQueryInto(sc, q, filter)
	out := make([]LRRecord, len(nbs))
	for i, nb := range nbs {
		out[i] = s.record(q, nb)
	}
	return out
}

// QueryRanked is the unmetered candidate query of a composite front
// (the live overlay): the (dist, ID)-ranked prefix of up to K tuples
// within maxDist of q — and within MaxRadius, when set — whose indices
// keep accepts (see Database.IndexOf and Database.Tuple; nil keeps
// every tuple). The selection ignores Rank: callers merge candidate
// lists with MergeCandidates, which applies the logical selection.
// Each candidate carries the distance the search ranked it by.
func (s *Service) QueryRanked(q geom.Point, keep func(int) bool, maxDist float64) []Ranked {
	if s.opts.MaxRadius > 0 && s.opts.MaxRadius < maxDist {
		maxDist = s.opts.MaxRadius
	}
	sc := s.getScratch()
	nbs := s.rankCandidates(sc, q, s.opts.K, keep, maxDist)
	out := make([]Ranked, len(nbs))
	for i, nb := range nbs {
		out[i] = Ranked{Rec: s.record(q, nb), Dist: nb.Dist}
	}
	s.putScratch(sc)
	return out
}

// QueryLRBatch answers m location-returned queries under one atomic
// budget reservation and one rate-limiter lock round-trip. The result
// slice is index-aligned with pts; when the budget covers only part of
// the batch, the unanswered positions are nil (a served empty answer
// is a non-nil empty slice) and the error is ErrBudgetExhausted. Each
// answered point costs one unit of budget — batching amortizes
// round-trips, not queries.
func (s *Service) QueryLRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LRRecord, error) {
	out := make([][]LRRecord, len(pts))
	granted, err := s.chargeN(ctx, int64(len(pts)))
	if granted > 0 {
		sc := s.getScratch()
		for i := int64(0); i < granted; i++ {
			out[i] = s.answerLRWith(sc, pts[i], filter)
		}
		s.putScratch(sc)
	}
	return out, err
}

// LNRRecord is one result row of the location-not-returned interface:
// the rank order carries the only spatial information.
type LNRRecord struct {
	ID       int64
	Name     string
	Category string
	Attrs    map[string]float64
	Tags     map[string]string
}

// QueryLNR answers a rank-only kNN query (the WeChat / Sina Weibo
// model): tuple IDs and non-location attributes in rank order.
func (s *Service) QueryLNR(ctx context.Context, q geom.Point, filter Filter) ([]LNRRecord, error) {
	if err := s.charge(ctx); err != nil {
		return nil, err
	}
	return s.answerLNR(q, filter), nil
}

// answerLNR computes one LNR answer without charging; callers charge
// first.
func (s *Service) answerLNR(q geom.Point, filter Filter) []LNRRecord {
	sc := s.getScratch()
	out := s.answerLNRWith(sc, q, filter)
	s.putScratch(sc)
	return out
}

// answerLNRWith is answerLNR over an explicit scratch.
func (s *Service) answerLNRWith(sc *queryScratch, q geom.Point, filter Filter) []LNRRecord {
	nbs := s.rawQueryInto(sc, q, filter)
	out := make([]LNRRecord, len(nbs))
	for i, nb := range nbs {
		t := &s.db.tuples[nb.Index]
		out[i] = LNRRecord{
			ID:       t.ID,
			Name:     t.Name,
			Category: t.Category,
			Attrs:    t.Attrs,
			Tags:     t.Tags,
		}
	}
	return out
}

// QueryLNRBatch is the rank-only twin of QueryLRBatch: m queries, one
// atomic budget reservation, one limiter round-trip, nil entries for
// the positions the budget could not cover.
func (s *Service) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LNRRecord, error) {
	out := make([][]LNRRecord, len(pts))
	granted, err := s.chargeN(ctx, int64(len(pts)))
	if granted > 0 {
		sc := s.getScratch()
		for i := int64(0); i < granted; i++ {
			out[i] = s.answerLNRWith(sc, pts[i], filter)
		}
		s.putScratch(sc)
	}
	return out, err
}
