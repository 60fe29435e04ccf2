package jobs

// Job durability: with ManagerOptions.Store set, every job's spec and
// view persist across process restarts. The lifecycle is
//
//	Create  — the spec is saved before the run starts
//	running — the view checkpoints every CheckpointEvery samples
//	settle  — the final view is saved before Done() closes
//	Recover — a fresh Manager reloads the table: finished jobs come
//	          back with their stored results; interrupted jobs re-run
//	          deterministically (same ID, seed, spec and full budget,
//	          so the final estimate is bit-equal to what the lost run
//	          would have produced); anything that cannot be resumed
//	          settles as failed with ErrUnresumable — a recovered job
//	          never silently vanishes.
//
// Resume-by-re-run is the honest checkpoint for a Monte-Carlo
// estimator: the sampler's RNG stream and estimator state do not
// serialize, but the run is a pure function of (spec, seed, budget),
// so replaying from sample zero reproduces the interrupted run
// exactly. The periodic view checkpoints are what clients see while
// the re-run catches up — the newest partials the lost process had
// reported.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ErrUnresumable is the typed reason a recovered job settles as
// failed: its stored entry was corrupt, or its spec no longer
// validates or compiles. The job stays in the table with this error —
// recovery never drops a job on the floor.
var ErrUnresumable = errors.New("jobs: recovered job cannot be resumed")

// StoredJob is the durable form of one job: the spec it was created
// from and the newest checkpointed view. Both are plain JSON.
type StoredJob struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	View View   `json:"view"`
	// Corrupt marks an entry whose stored bytes could not be decoded;
	// the Store sets it (with ID recovered from the entry's name) so
	// Recover can settle the job as unresumable instead of losing it.
	Corrupt bool `json:"-"`
}

// Store is the persistence backend for jobs — implemented by
// internal/store's per-job JSON files. Save overwrites the entry for
// sj.ID; Load returns every entry (corrupt ones with Corrupt set);
// Delete forgets one.
type Store interface {
	Save(sj StoredJob) error
	Load() ([]StoredJob, error)
	Delete(id string) error
}

// RecoveryStats is what Recover found.
type RecoveryStats struct {
	Recovered   int // finished jobs reloaded with their stored results
	Resumed     int // interrupted jobs re-running under their original ID
	Unresumable int // jobs settled as failed with ErrUnresumable
}

// Recover reloads the job table from the manager's Store. Call it on
// a fresh Manager before serving requests. Jobs the store remembers
// as finished reappear with their stored views; jobs that were
// running when the process died are resumed as deterministic re-runs;
// corrupt or no-longer-compilable entries settle as failed with
// ErrUnresumable. The ID sequence advances past every recovered ID so
// new submissions never collide.
func (m *Manager) Recover() (RecoveryStats, error) {
	var rs RecoveryStats
	if m.opts.Store == nil {
		return rs, nil
	}
	stored, err := m.opts.Store.Load()
	if err != nil {
		return rs, fmt.Errorf("jobs: recover: %w", err)
	}
	var maxSeq int64
	for _, sj := range stored {
		if n, ok := seqOf(sj.ID); ok && n > maxSeq {
			maxSeq = n
		}
	}
	m.mu.Lock()
	if maxSeq > m.seq {
		m.seq = maxSeq
	}
	m.mu.Unlock()

	for _, sj := range stored {
		switch {
		case sj.Corrupt:
			m.settleUnresumable(sj, fmt.Errorf("%w: stored entry is corrupt", ErrUnresumable))
			rs.Unresumable++
		case sj.View.State.Finished():
			m.reloadFinished(sj)
			rs.Recovered++
		default:
			if err := resumable(sj); err == nil {
				if _, err = m.start(sj.Spec, sj.ID, true); err == nil {
					rs.Resumed++
					continue
				}
			}
			m.settleUnresumable(sj, fmt.Errorf("%w: %v", ErrUnresumable, err))
			rs.Unresumable++
		}
	}
	return rs, nil
}

// resumable is the pre-flight check for re-running a recovered spec.
func resumable(sj StoredJob) error {
	if sj.ID == "" {
		return fmt.Errorf("missing job ID")
	}
	return sj.Spec.Validate()
}

// reloadFinished registers a finished job from its stored view. The
// job is frozen: Snapshot serves the view verbatim, the trace window
// is empty (trace events do not persist), and eviction treats it like
// any other finished job.
func (m *Manager) reloadFinished(sj StoredJob) {
	v := sj.View
	m.register(&Job{
		ID:        sj.ID,
		Spec:      sj.Spec,
		state:     v.State,
		frozen:    &v,
		createdAt: v.CreatedAt,
	})
}

// settleUnresumable registers a job that recovery could not bring
// back, failed with reason. The stored view (if any decoded) is kept
// as the base so clients still see the last reported partials.
func (m *Manager) settleUnresumable(sj StoredJob, reason error) {
	v := sj.View
	v.ID = sj.ID
	v.State = StateFailed
	v.Error = reason.Error()
	if v.FinishedAt == nil {
		t := time.Now()
		v.FinishedAt = &t
	}
	j := &Job{
		ID:        sj.ID,
		Spec:      sj.Spec,
		state:     StateFailed,
		err:       reason,
		frozen:    &v,
		createdAt: v.CreatedAt,
	}
	m.register(j)
	// The failed view is durable too: a second restart recovers the
	// same settled job instead of retrying the broken entry.
	_ = m.opts.Store.Save(StoredJob{ID: sj.ID, Spec: sj.Spec, View: v})
}

// register inserts a recovered (already settled) job into the table,
// completing the fields every Job must have. Recovery runs before the
// server accepts requests, so the table cannot be full of running
// jobs; if it is full of finished ones the oldest is evicted as usual.
func (m *Manager) register(j *Job) {
	j.cancel = func() {} // already settled; Cancel is a no-op
	j.done = make(chan struct{})
	close(j.done)
	j.traceWake = make(chan struct{})
	if t := j.frozen.FinishedAt; t != nil {
		j.finishedAt = *t
	}
	m.mu.Lock()
	if len(m.jobs) >= m.opts.MaxJobs {
		m.evictOldestFinishedLocked()
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
}

// seqOf parses the numeric suffix of a "job-<n>" ID.
func seqOf(id string) (int64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	return n, err == nil
}

// storedView captures the job's durable form.
func (j *Job) storedView() StoredJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return StoredJob{ID: j.ID, Spec: j.Spec, View: j.viewLocked()}
}

// maybeCheckpointLocked saves a view checkpoint when enough samples
// accumulated since the last one; callers hold j.mu. The save runs on
// its own goroutine so the sampler never blocks on disk — Store
// implementations serialize writes per job, and a lost in-flight
// checkpoint only costs recovery some staleness, never correctness.
func (j *Job) maybeCheckpointLocked() {
	if j.persist == nil {
		return
	}
	samples := 0
	for _, st := range j.planStats {
		samples += st.Samples
	}
	if samples-j.lastCkpt < j.ckptEvery {
		return
	}
	j.lastCkpt = samples
	sj := StoredJob{ID: j.ID, Spec: j.Spec, View: j.viewLocked()}
	j.saves.Add(1)
	go func() {
		defer j.saves.Done()
		_ = j.persist.Save(sj)
	}()
}

// persistSettle saves the job's final view; run's defer calls it once
// the state machine settled, before Done() observers fire. It waits
// out in-flight checkpoint writes first, so a stale running view can
// never land after — and clobber — the settled one.
func (j *Job) persistSettle() {
	if j.persist == nil {
		return
	}
	j.saves.Wait()
	_ = j.persist.Save(j.storedView())
}
