package sched

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// placedJob is one resident of a platform: the job's identity plus the
// job itself, kept whole so a platform failure can orphan its residents
// back into the retry path with deadlines intact.
type placedJob struct {
	id  JobID
	job Job
}

// ReplicaConfig tunes a Scheduler's replication: how many scheduler
// replicas share the slot store, how platforms shard across them, and the
// optimistic commit protocol's retry budget.
type ReplicaConfig struct {
	// Replicas is the number of scheduler frontends (default 1).
	Replicas int
	// Shards partitions the platforms: replica i places into shard
	// i % Shards. 0 shards one partition per replica (disjoint platform
	// sets, minimal commit contention); 1 is a single shared pool (every
	// replica sees every platform, conflicts resolved optimistically);
	// values above the replica or platform count are clamped, so no
	// platform sits in a shard no replica places into.
	Shards int
	// MaxCommitRetries bounds consecutive reserve conflicts per job before
	// it is shed with ReasonConflict (default 8).
	MaxCommitRetries int
	// CommitBackoff is the base delay between reserve retries, doubled per
	// consecutive conflict up to CommitBackoffMax (default 1ms when a base
	// is set). 0 yields the processor instead of sleeping.
	CommitBackoff    time.Duration
	CommitBackoffMax time.Duration
	// RebalanceEvery checks shard balance every N placed chunks and
	// rebalances when the hottest shard's resident load exceeds
	// RebalanceSkew times the mean (default skew 1.5). 0 disables
	// automatic rebalancing; Rebalance can still be called directly.
	RebalanceEvery int
	RebalanceSkew  float64
}

// shardMap is an immutable platform partition: shards[i] is a sorted
// platform list. Replicas read it at chunk start, so a rebalance takes
// effect at the next chunk boundary; transiently overlapping placements
// during the handoff are resolved by the commit protocol like any other
// conflict.
type shardMap struct {
	shards [][]int
}

// ConflictStats counts the optimistic commit protocol's outcomes across a
// Scheduler's lifetime.
type ConflictStats struct {
	// Attempts is the number of slot reservations tried; Conflicts how
	// many were refused because the scored snapshot had gone stale (the
	// conflict-retry rate is Conflicts/Attempts).
	Attempts  uint64
	Conflicts uint64
	// Shed counts jobs unplaced with ReasonConflict after exhausting
	// MaxCommitRetries.
	Shed uint64
	// Rebalances counts shard-map rewrites (skew-triggered or explicit).
	Rebalances uint64
}

// ReplicaStats is one replica's share of the commit traffic.
type ReplicaStats struct {
	Commits   uint64
	Conflicts uint64
	Shed      uint64
}

// Scheduler assigns jobs to platforms with a policy and tracks the live
// cluster state: placements occupy colocation slots until Complete frees
// them. The cluster state lives in a SlotStore of versioned, immutable
// per-platform snapshots; one or more replicas (ReplicaConfig.Replicas)
// score waves against their own snapshot of it and commit each placement
// with a compare-and-swap slot reservation, so placement needs no global
// lock. Platforms are sharded across replicas (ReplicaConfig.Shards);
// shards that run hot are rebalanced by resident load.
//
// Safe for concurrent use: Place, PlaceAll, Complete, the failure events,
// and the accessors may be called from any number of goroutines. PlaceAll
// routes each wave to a replica round-robin; drivers that own their
// parallelism (one goroutine per frontend) should take Replica handles and
// call PlaceAll on them directly. With one replica (New) the commit
// protocol never conflicts, and placement is a pure function of the event
// sequence.
type Scheduler struct {
	cfg      Config
	policy   Policy
	strategy Strategy
	// pred scores whole candidate sets and waves: the caller's predictor,
	// or a loopPredictor around it when it has no batch facet.
	pred BatchPredictor

	// chunk is the resolved Config.WaveChunk: max jobs placed per replica
	// lock hold in PlaceAll. degradedPenalty is the resolved
	// Config.DegradedPenalty (≥ 1).
	chunk            int
	degradedPenalty  float64
	maxRetries       int
	commitBackoff    time.Duration
	commitBackoffMax time.Duration
	rebalanceEvery   int
	rebalanceSkew    float64

	store    *SlotStore
	replicas []*Replica
	shards   atomic.Pointer[shardMap]

	router     atomic.Uint64
	chunkCount atomic.Uint64
	rebalances atomic.Uint64
	rebalanceM sync.Mutex

	// met/rec are the optional observability hooks (Config.Metrics /
	// Config.Recorder); both nil-safe, both off the decision path. ver
	// reads the predictor's snapshot version for event stamping when the
	// predictor exposes one.
	met *obs.SchedMetrics
	rec *obs.Recorder
	ver func() uint64

	// cache is the cross-wave score cache shared by every replica
	// (Config.ScoreCache); nil when disabled. Columns key on SlotStore
	// versions, so one replica's fresh scoring serves another replica's
	// identical view. epochFn reads the predictor's scoring epoch.
	cache   *ScoreCache
	epochFn func() uint64
}

// snapshotVersioner is the optional predictor facet exposing a snapshot
// version; flight-recorder events are stamped with it so a trace ties each
// decision to the model state that made it.
type snapshotVersioner interface{ Version() uint64 }

// defaultWaveChunk bounds a PlaceAll lock hold when Config.WaveChunk is 0:
// large enough to amortize the wave pre-score, small enough that a
// concurrent event waits microseconds, not a whole 256-job wave.
const defaultWaveChunk = 64

// defaultDegradedPenalty inflates the feasibility score on Degraded
// platforms when Config.DegradedPenalty is 0: a degraded platform must
// clear the deadline with 25% headroom to win a placement.
const defaultDegradedPenalty = 1.25

// waveScratch holds PlaceAll's per-chunk buffers for reuse across waves.
// The *Rank twins carry the policy's ranking facet.
type waveScratch struct {
	qs          []Query
	pre         []float64
	preRank     []float64
	scoreAt     []float64
	rankAt      []float64
	prescored   []bool
	cands       []Candidate
	snaps       [][]int
	rescoreQ    []Query
	rescore     []float64
	rescoreRank []float64

	// Memoized-path buffers (reserveCache; sized to the chunk's job count,
	// allocated only when the score cache is enabled): the wave's distinct
	// workloads and each job's index into them, the per-column
	// feasibility/rank/hit triple, and the cache-miss working set.
	distinct []int
	dIdx     []int
	colFeas  []float64
	colRank  []float64
	colHit   []bool
	missW    []int
	missFeas []float64
	missRank []float64
	colQ     []Query
}

// reserve grows the scratch buffers to a wave of nJ jobs over nP
// platforms.
func (sc *waveScratch) reserve(nP, nJ int) {
	if cap(sc.qs) < nP*nJ {
		sc.qs = make([]Query, 0, nP*nJ)
		sc.pre = make([]float64, nP*nJ)
		sc.preRank = make([]float64, nP*nJ)
		sc.scoreAt = make([]float64, nP*nJ)
		sc.rankAt = make([]float64, nP*nJ)
	}
	if cap(sc.prescored) < nP {
		sc.prescored = make([]bool, nP)
		sc.cands = make([]Candidate, 0, nP)
		sc.snaps = make([][]int, 0, nP)
	}
	if cap(sc.rescoreQ) < nJ {
		sc.rescoreQ = make([]Query, 0, nJ)
		sc.rescore = make([]float64, nJ)
		sc.rescoreRank = make([]float64, nJ)
	}
}

// reserveCache grows the memoized-path buffers to a chunk of nJ jobs over
// nP platforms: the column value/hit grids span every prescored column so
// the chunk's cache misses can be scored in one batched call. Called only
// on the cached path, so cache-off schedulers never pay the allocation.
func (sc *waveScratch) reserveCache(nP, nJ int) {
	if cap(sc.dIdx) >= nJ && cap(sc.colFeas) >= nP*nJ {
		return
	}
	sc.distinct = make([]int, 0, nJ)
	sc.dIdx = make([]int, nJ)
	sc.colFeas = make([]float64, nP*nJ)
	sc.colRank = make([]float64, nP*nJ)
	sc.colHit = make([]bool, nP*nJ)
	sc.missW = make([]int, 0, nP*nJ)
	sc.missFeas = make([]float64, nP*nJ)
	sc.missRank = make([]float64, nP*nJ)
	sc.colQ = make([]Query, 0, nP*nJ)
}

// New creates a single-replica scheduler over one shared pool of
// platforms. Placement scores whole waves through pred's batch facet when
// it implements BatchPredictor, and one scalar call per query otherwise;
// the mixed-head policies score both facets in one fused pass when pred
// implements FusedPredictor.
func New(cfg Config, policy Policy, pred Predictor) (*Scheduler, error) {
	return NewReplicated(cfg, ReplicaConfig{Replicas: 1, Shards: 1}, policy, pred)
}

// NewReplicated builds a scheduler with rc.Replicas frontends over one
// shared slot store. cfg carries the cluster shape and scoring
// configuration exactly as for New.
func NewReplicated(cfg Config, rc ReplicaConfig, policy Policy, pred Predictor) (*Scheduler, error) {
	if rc.Replicas == 0 {
		rc.Replicas = 1
	}
	if rc.Replicas < 0 {
		return nil, fmt.Errorf("sched: negative Replicas")
	}
	if rc.Shards < 0 {
		return nil, fmt.Errorf("sched: negative Shards")
	}
	if cfg.MaxColocation <= 0 {
		cfg.MaxColocation = 4
	}
	if cfg.Strategy == nil {
		cfg.Strategy = LeastLoaded{}
	}
	chunk := cfg.WaveChunk
	if chunk == 0 {
		chunk = defaultWaveChunk
	}
	penalty := cfg.DegradedPenalty
	if penalty == 0 {
		penalty = defaultDegradedPenalty
	}
	if !(penalty >= 1) || math.IsInf(penalty, 1) {
		return nil, fmt.Errorf("sched: DegradedPenalty %v: want a finite value ≥ 1", penalty)
	}
	if cfg.ScoreCacheCap < 0 {
		return nil, fmt.Errorf("sched: negative ScoreCacheCap")
	}
	if rc.MaxCommitRetries <= 0 {
		rc.MaxCommitRetries = 8
	}
	if rc.CommitBackoff > 0 && rc.CommitBackoffMax <= 0 {
		rc.CommitBackoffMax = time.Millisecond
	}
	if rc.CommitBackoffMax < rc.CommitBackoff {
		rc.CommitBackoffMax = rc.CommitBackoff
	}
	if rc.RebalanceSkew <= 1 {
		rc.RebalanceSkew = 1.5
	}
	store, err := NewSlotStore(cfg)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:              cfg,
		policy:           policy,
		strategy:         cfg.Strategy,
		chunk:            chunk,
		degradedPenalty:  penalty,
		maxRetries:       rc.MaxCommitRetries,
		commitBackoff:    rc.CommitBackoff,
		commitBackoffMax: rc.CommitBackoffMax,
		rebalanceEvery:   rc.RebalanceEvery,
		rebalanceSkew:    rc.RebalanceSkew,
		store:            store,
		met:              cfg.Metrics,
		rec:              cfg.Recorder,
	}
	if bp, ok := pred.(BatchPredictor); ok {
		s.pred = bp
	} else {
		s.pred = loopPredictor{pred}
	}
	// The optional facets are read off the caller's predictor: the
	// adapter does not promote them.
	if v, ok := pred.(snapshotVersioner); ok {
		s.ver = v.Version
	}
	if cfg.ScoreCache {
		s.cache = newScoreCache(cfg.NumPlatforms, cfg.ScoreCacheCap)
		s.epochFn = resolveEpochFn(pred)
	}
	nShards := rc.Shards
	if nShards == 0 || nShards > rc.Replicas {
		nShards = rc.Replicas
	}
	if nShards > cfg.NumPlatforms {
		nShards = cfg.NumPlatforms
	}
	shards := make([][]int, nShards)
	for p := 0; p < cfg.NumPlatforms; p++ {
		shards[p%nShards] = append(shards[p%nShards], p)
	}
	s.shards.Store(&shardMap{shards: shards})
	s.replicas = make([]*Replica, rc.Replicas)
	for i := range s.replicas {
		s.replicas[i] = &Replica{set: s, idx: i}
	}
	return s, nil
}

// snapVersion returns the predictor's current snapshot version, or 0 when
// the predictor does not expose one. Only called on recording paths.
func (s *Scheduler) snapVersion() uint64 {
	if s.ver == nil {
		return 0
	}
	return s.ver()
}

// epoch returns the predictor's current scoring epoch, or 0 for
// epoch-less predictors (immutable for the scheduler's lifetime).
func (s *Scheduler) epoch() uint64 {
	if s.epochFn == nil {
		return 0
	}
	return s.epochFn()
}

// ScoreCacheStats returns the shared score cache's counters and whether
// the cache is enabled on this scheduler.
func (s *Scheduler) ScoreCacheStats() (ScoreCacheStats, bool) {
	if s.cache == nil {
		return ScoreCacheStats{}, false
	}
	return s.cache.Stats(), true
}

// Place assigns one job: among feasible platforms (score ≤ deadline after
// accounting for the interference the job will experience from residents),
// the configured Strategy picks the winner. The returned assignment is
// unplaced when no platform is feasible, and Rejected when admission
// control refused the job outright (MaxInFlight reached).
func (s *Scheduler) Place(job Job) Assignment {
	return s.PlaceAll([]Job{job})[0]
}

// PlaceAll places a wave of jobs in arrival order through the next replica
// round-robin (see Replica.PlaceAll). With no concurrent events, decisions
// are identical to calling Place per job.
func (s *Scheduler) PlaceAll(jobs []Job) []Assignment {
	r := s.replicas[(s.router.Add(1)-1)%uint64(len(s.replicas))]
	return r.PlaceAll(jobs)
}

// shardFor returns the sorted platform list replica i currently places
// into.
func (s *Scheduler) shardFor(i int) []int {
	m := s.shards.Load()
	return m.shards[i%len(m.shards)]
}

// NumReplicas returns the replica count.
func (s *Scheduler) NumReplicas() int { return len(s.replicas) }

// NumShards returns the current shard count.
func (s *Scheduler) NumShards() int { return len(s.shards.Load().shards) }

// Replica returns frontend i, for drivers that pin work to replicas.
func (s *Scheduler) Replica(i int) *Replica { return s.replicas[i] }

// noteChunk ticks the auto-rebalance cadence after each placed chunk.
func (s *Scheduler) noteChunk() {
	if s.rebalanceEvery <= 0 || s.NumShards() < 2 {
		return
	}
	if s.chunkCount.Add(1)%uint64(s.rebalanceEvery) != 0 {
		return
	}
	if s.shardSkew() > s.rebalanceSkew {
		s.Rebalance()
	}
}

// shardSkew is the hottest shard's resident load over the mean shard load
// (1 when perfectly balanced; +Inf-free: 0 loads give skew 0).
func (s *Scheduler) shardSkew() float64 {
	m := s.shards.Load()
	total, max := 0, 0
	for _, shard := range m.shards {
		load := 0
		for _, p := range shard {
			load += s.store.Load(p)
		}
		total += load
		if load > max {
			max = load
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(m.shards))
	return float64(max) / mean
}

// Rebalance rewrites the shard map by current resident load: platforms are
// assigned greedily, heaviest first, to the lightest shard (deterministic
// tie-breaks on index), then each shard is sorted so replica scoring order
// stays ascending. Replicas pick the new map up at their next chunk;
// placements that straddle the swap are protected by the commit protocol.
func (s *Scheduler) Rebalance() {
	s.rebalanceM.Lock()
	defer s.rebalanceM.Unlock()
	nShards := s.NumShards()
	type platLoad struct{ p, load int }
	pls := make([]platLoad, s.cfg.NumPlatforms)
	for p := range pls {
		pls[p] = platLoad{p: p, load: s.store.Load(p)}
	}
	sort.Slice(pls, func(i, j int) bool {
		if pls[i].load != pls[j].load {
			return pls[i].load > pls[j].load
		}
		return pls[i].p < pls[j].p
	})
	shards := make([][]int, nShards)
	loads := make([]int, nShards)
	for _, pl := range pls {
		li := 0
		for k := 1; k < nShards; k++ {
			if loads[k] < loads[li] {
				li = k
			}
		}
		shards[li] = append(shards[li], pl.p)
		loads[li] += pl.load
	}
	for _, shard := range shards {
		sort.Ints(shard)
	}
	s.shards.Store(&shardMap{shards: shards})
	s.rebalances.Add(1)
}

// ConflictStats returns the commit protocol's counters.
func (s *Scheduler) ConflictStats() ConflictStats {
	var shed uint64
	for _, r := range s.replicas {
		shed += r.shed.Load()
	}
	return ConflictStats{
		Attempts:   s.store.reserveAttempts.Load(),
		Conflicts:  s.store.reserveConflictsCnt.Load(),
		Shed:       shed,
		Rebalances: s.rebalances.Load(),
	}
}

// ReplicaStats returns per-replica commit traffic, indexed by replica.
func (s *Scheduler) ReplicaStats() []ReplicaStats {
	out := make([]ReplicaStats, len(s.replicas))
	for i, r := range s.replicas {
		out[i] = ReplicaStats{
			Commits:   r.commits.Load(),
			Conflicts: r.conflicts.Load(),
			Shed:      r.shed.Load(),
		}
	}
	return out
}

// Store returns the shared slot store (shared-state introspection).
func (s *Scheduler) Store() *SlotStore { return s.store }

// Lifecycle surface, delegated to the shared store so every replica and
// external caller sees one cluster (see the SlotStore methods for the
// exactly-once and breaker contracts).

// Complete frees the colocation slot of a placed job; later placements see
// the vacancy. Returns ErrUnknownJob for IDs never issued and
// ErrJobCompleted for IDs already retired (completed earlier, or orphaned
// by a platform failure).
func (s *Scheduler) Complete(id JobID) error { return s.store.Complete(id) }

// CompleteOutcome is Complete plus an outcome report for the circuit
// breaker: miss records whether the execution overran its deadline. The
// returned tripped flag reports whether this outcome tripped the platform
// into quarantine.
func (s *Scheduler) CompleteOutcome(id JobID, miss bool) (tripped bool, err error) {
	return s.store.CompleteOutcome(id, miss)
}

// Fail marks platform p Down and orphans its residents exactly once.
func (s *Scheduler) Fail(p int) ([]Orphan, error) { return s.store.Fail(p) }

// Degrade marks platform p Degraded.
func (s *Scheduler) Degrade(p int) error { return s.store.Degrade(p) }

// Recover advances platform p toward Healthy.
func (s *Scheduler) Recover(p int) error { return s.store.Recover(p) }

// Health returns platform p's current state (Healthy for out-of-range
// indices).
func (s *Scheduler) Health(p int) HealthState { return s.store.Health(p) }

// HealthSnapshot returns a copy of every platform's health state.
func (s *Scheduler) HealthSnapshot() []HealthState { return s.store.HealthSnapshot() }

// Impaired returns the number of platforms not currently Healthy.
func (s *Scheduler) Impaired() int { return s.store.Impaired() }

// FailureStats returns the failure-lifecycle counters.
func (s *Scheduler) FailureStats() FailureStats { return s.store.FailureStats() }

// InFlight returns the number of placed jobs that have not completed.
func (s *Scheduler) InFlight() int { return s.store.InFlight() }

// Residents returns a copy of the workloads currently placed on platform
// p; mutating it never affects scheduler state.
func (s *Scheduler) Residents(p int) []int { return s.store.Residents(p) }

// padDegradedCands inflates the feasibility score of candidates on
// Degraded platforms by the configured penalty, after scoring, so cached
// raw scores serve healthy and degraded selections alike. Only the feasibility facet is
// padded: Rank keeps the raw prediction, because strategies interpret it
// as runtime (LeastLoaded keeps fast platforms free, BestFit packs tight)
// and a padded rank would make degraded platforms look slower — and
// therefore *more* attractive — to both. The preference for healthy
// platforms is the strategies' explicit Degraded tie-break instead.
func padDegradedCands(cands []Candidate, penalty float64) {
	for i := range cands {
		if cands[i].Degraded {
			cands[i].Score *= penalty
		}
	}
}

// bestCandidate returns the index of the strategy-best feasible candidate:
// NaN scores (unplaceable), +Inf scores (no valid bound), and scores past
// the deadline are infeasible; the strategy orders the rest by Rank. -1
// when nothing is feasible.
func bestCandidate(strategy Strategy, job Job, cands []Candidate) int {
	bestIdx := -1
	for i, c := range cands {
		if math.IsNaN(c.Score) || math.IsInf(c.Score, 1) || c.Score > job.Deadline {
			continue
		}
		if bestIdx < 0 || strategy.Better(job, c, cands[bestIdx]) {
			bestIdx = i
		}
	}
	return bestIdx
}

// unplacedReason explains a failed selection: placeable is how many
// platforms were healthy enough to consider, nCands how many had a free
// slot and were scored.
func unplacedReason(placeable, nCands int) string {
	switch {
	case placeable == 0:
		return ReasonNoHealthy
	case nCands == 0:
		return ReasonCapacity
	}
	return ReasonInfeasible
}
