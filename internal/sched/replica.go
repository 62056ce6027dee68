package sched

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// platformView is a replica's local snapshot of one platform: the version
// it scored against plus everything placement needs (resident workloads,
// load, effective cap, health). Views refresh at chunk start, after the
// replica's own commits, and on reserve conflicts — never mid-selection,
// so a chunk's decisions are a pure function of its snapshots.
type platformView struct {
	ver       uint64
	ks        []int
	load      int
	cap       int
	placeable bool
	degraded  bool
}

// Replica is one placement frontend of a Scheduler: it scores waves
// against a private snapshot of the shared SlotStore and commits each
// placement with an optimistic slot reservation. A version conflict at
// commit (another replica placed, a completion landed, a health event
// fired) refreshes the platform's view, re-scores the affected column, and
// retries selection with bounded backoff, up to MaxCommitRetries before the
// job is shed with ReasonConflict. With no concurrent store mutations the
// conflict path never executes.
//
// A Replica is safe for concurrent use; concurrent PlaceAll calls on the
// same replica serialize on its private mutex (use distinct replicas for
// parallel placement).
type Replica struct {
	set *Scheduler
	idx int

	mu      sync.Mutex
	views   []platformView // indexed by platform
	slotOf  []int          // platform -> shard slot for the current chunk
	scratch waveScratch

	commits   atomic.Uint64
	conflicts atomic.Uint64
	shed      atomic.Uint64

	// chunkGap, when non-nil, runs between chunk placements (test hook:
	// deterministic mid-wave interleaving).
	chunkGap func()
}

// PlaceAll places a wave of jobs in arrival order through this replica.
// The wave is processed in chunks of Config.WaveChunk jobs, the replica
// lock released between chunks: a completion arriving mid-wave frees its
// slot, and the following chunks see the vacancy. With no concurrent
// events, decisions are identical to the unchunked wave (and to calling
// Place per job): each chunk snapshots the cluster state its first job
// would see, and scores are per-query deterministic, so chunk boundaries
// never change a selection.
//
// Within a chunk the batched path pre-scores every job on every platform
// of the replica's shard in a single predictor call — queries laid out
// platform-major so each platform's resident set (and therefore its
// interference term) is folded once, per model — and eagerly re-scores a
// platform dirtied by a placement for the chunk's remaining jobs in one
// wide span. The policy fills both the feasibility and ranking facets
// from the same pass (one fused call for the mixed-head policies when the
// predictor supports it).
func (r *Replica) PlaceAll(jobs []Job) []Assignment {
	// Observability is guarded per-site so the disabled path never calls
	// time.Now: one predictable branch per chunk, zero allocations.
	met := r.set.met
	var waveStart time.Time
	if met != nil {
		waveStart = time.Now()
		met.WaveSize.Observe(float64(len(jobs)))
	}
	out := make([]Assignment, len(jobs))
	chunk := r.set.chunk
	if chunk < 0 || chunk > len(jobs) {
		chunk = len(jobs)
	}
	for lo := 0; lo < len(jobs); lo += chunk {
		hi := lo + chunk
		if hi > len(jobs) {
			hi = len(jobs)
		}
		r.mu.Lock()
		var holdStart time.Time
		if met != nil {
			holdStart = time.Now()
		}
		r.placeChunk(jobs[lo:hi], out[lo:hi])
		if met != nil {
			met.ChunkHold.ObserveSince(holdStart)
		}
		r.mu.Unlock()
		r.set.noteChunk()
		if r.chunkGap != nil && hi < len(jobs) {
			r.chunkGap()
		}
	}
	if met != nil {
		met.WavePlace.ObserveSince(waveStart)
	}
	return out
}

// Place assigns one job through this replica.
func (r *Replica) Place(job Job) Assignment {
	return r.PlaceAll([]Job{job})[0]
}

// setView rebuilds platform p's view from a published store state: the
// current one at chunk start, or the one a reservation returned — after a
// commit that is exactly the resident set the chunk's remaining jobs must
// be scored against.
func (r *Replica) setView(p int, st *platformSlots) {
	r.views[p] = platformView{
		ver:       st.version,
		ks:        st.workloads(),
		load:      len(st.residents),
		cap:       st.colocCap(r.set.store.maxColocation),
		placeable: st.state.Placeable(),
		degraded:  st.state == Degraded,
	}
}

// rejected is the admission-control refusal of job.
func rejected(job Job) Assignment {
	return Assignment{Job: job, Platform: -1, Budget: math.Inf(1), Rejected: true, Reason: ReasonAdmission}
}

// admissionFull reports whether the cluster is at MaxInFlight.
func (s *Scheduler) admissionFull() bool {
	return s.store.maxInFlight > 0 && s.store.InFlight() >= s.store.maxInFlight
}

// commitBest pads the scored candidates, selects the strategy-best
// feasible one, and reserves its slot. Feasibility is judged on
// Candidate.Score; the strategy orders by Candidate.Rank. snaps[i] is the
// resident snapshot cands[i] was scored under; placeable is how many
// platforms were healthy enough to be considered at all, distinguishing a
// shrunken healthy set from a full or infeasible one in the unplaced
// Reason; tries counts the job's earlier conflicts.
//
// It returns the job's final assignment and -1, or — when the reservation
// lost to a newer version of platform p and the retry budget allows
// another attempt — p, with p's view already refreshed, for the caller to
// re-score and select again.
func (r *Replica) commitBest(job Job, cands []Candidate, snaps [][]int, placeable, tries int) (Assignment, int) {
	set := r.set
	padDegradedCands(cands, set.degradedPenalty)
	bi := bestCandidate(set.strategy, job, cands)
	if bi < 0 {
		reason := unplacedReason(placeable, len(cands))
		if set.rec != nil {
			set.rec.Record(obs.Event{Kind: obs.EvShed, Reason: obs.ParseReason(reason),
				Platform: -1, Version: set.snapVersion()})
		}
		return Assignment{Job: job, Platform: -1, Budget: math.Inf(1), Reason: reason}, -1
	}
	p := cands[bi].Platform
	id, st, status := set.store.reserve(p, r.views[p].ver, job)
	switch status {
	case reserveOK:
		r.commits.Add(1)
		if set.rec != nil {
			set.rec.Record(obs.Event{Kind: obs.EvPlace, Job: uint64(id), ID: uint64(id),
				Platform: int32(p), Version: set.snapVersion()})
		}
		r.setView(p, st)
		return Assignment{
			ID:          id,
			Job:         job,
			Platform:    p,
			Budget:      cands[bi].Score,
			Interferers: snaps[bi],
		}, -1
	case reserveAdmission:
		return rejected(job), -1
	}
	// Conflict: our snapshot of p went stale. Refresh from the state the
	// store returned so the caller can re-score and retry the selection —
	// the refreshed view may demote p or crown a different winner.
	r.conflicts.Add(1)
	tries++
	if set.rec != nil {
		set.rec.Record(obs.Event{Kind: obs.EvConflict, Platform: int32(p),
			N: int32(tries), Version: set.snapVersion()})
	}
	if tries > set.maxRetries {
		r.shed.Add(1)
		if set.rec != nil {
			set.rec.Record(obs.Event{Kind: obs.EvShed, Reason: obs.ReasonConflict,
				Platform: int32(p), N: int32(tries), Version: set.snapVersion()})
		}
		return Assignment{Job: job, Platform: -1, Budget: math.Inf(1), Reason: ReasonConflict}, -1
	}
	set.backoff(tries)
	r.setView(p, st)
	return Assignment{}, p
}

// placeChunk places one chunk of jobs under the replica mutex, filling
// out[i] for jobs[i], against the shard's view snapshots.
func (r *Replica) placeChunk(jobs []Job, out []Assignment) {
	set := r.set
	shard := set.shardFor(r.idx)
	if r.views == nil {
		r.views = make([]platformView, set.cfg.NumPlatforms)
		r.slotOf = make([]int, set.cfg.NumPlatforms)
	}
	for si, p := range shard {
		r.setView(p, set.store.load(p))
		r.slotOf[p] = si
	}
	nS, nJ := len(shard), len(jobs)
	sc := &r.scratch
	sc.reserve(nS, nJ)

	// Chunk pre-score against the snapshot state, one batched call, queries
	// platform-major in ascending platform order (shards are kept sorted),
	// so pre[] maps back to (platform, job) by walking the shard in the same
	// order. On the memoized path the query build is skipped: columns go
	// through the dedup + cache machinery in prescoreChunkCached instead.
	qs := sc.qs[:0]
	prescored := sc.prescored[:nS]
	for si, p := range shard {
		v := &r.views[p]
		prescored[si] = false
		if !v.placeable || v.load >= v.cap {
			continue // unavailable or full at chunk start
		}
		prescored[si] = true
		if set.cache != nil {
			continue
		}
		for j := range jobs {
			qs = append(qs, Query{Workload: jobs[j].Workload, Platform: p, Interferers: v.ks})
		}
	}
	scoreAt := sc.scoreAt[:nS*nJ]
	rankAt := sc.rankAt[:nS*nJ]
	if set.cache != nil {
		r.prescoreChunkCached(jobs, shard, prescored, scoreAt, rankAt)
	} else {
		pre := sc.pre[:len(qs)]
		preRank := sc.preRank[:len(qs)]
		var scoreStart time.Time
		if set.met != nil {
			scoreStart = time.Now()
		}
		set.policy.Score(set.pred, qs, pre, preRank)
		if set.met != nil {
			set.met.ScoreBatch.ObserveSince(scoreStart)
		}
		if set.rec != nil {
			set.rec.Record(obs.Event{Kind: obs.EvScore, Platform: -1, N: int32(nJ),
				Version: set.snapVersion()})
		}
		next := 0
		for si := 0; si < nS; si++ {
			if !prescored[si] {
				for j := 0; j < nJ; j++ {
					scoreAt[si*nJ+j] = math.NaN()
				}
				continue
			}
			copy(scoreAt[si*nJ:(si+1)*nJ], pre[next:next+nJ])
			copy(rankAt[si*nJ:(si+1)*nJ], preRank[next:next+nJ])
			next += nJ
		}
	}

	for j, job := range jobs {
		if set.admissionFull() {
			out[j] = rejected(job)
			continue
		}
		for tries := 0; ; tries++ {
			cands := sc.cands[:0]
			snaps := sc.snaps[:0]
			placeable := 0
			for si, p := range shard {
				v := &r.views[p]
				if !v.placeable {
					continue
				}
				placeable++
				if v.load+1 > v.cap {
					continue
				}
				cands = append(cands, Candidate{
					Platform: p,
					Load:     v.load,
					Score:    scoreAt[si*nJ+j],
					Rank:     rankAt[si*nJ+j],
					Degraded: v.degraded,
				})
				snaps = append(snaps, v.ks)
			}
			a, stale := r.commitBest(job, cands, snaps, placeable, tries)
			if stale < 0 {
				out[j] = a
				// Re-score the just-dirtied platform for the chunk's
				// remaining jobs: one span, one interference fold over its
				// updated residents (per model). A platform full now is
				// excluded from the remaining jobs by the cap check.
				if p := a.Platform; p >= 0 && j+1 < nJ && r.views[p].load < r.views[p].cap {
					r.rescoreColumn(p, jobs, j+1, scoreAt, rankAt)
				}
				break
			}
			if v := &r.views[stale]; v.placeable && v.load < v.cap {
				r.rescoreColumn(stale, jobs, j, scoreAt, rankAt)
			} else {
				si := r.slotOf[stale]
				for jj := j; jj < nJ; jj++ {
					scoreAt[si*nJ+jj] = math.NaN()
				}
			}
		}
	}
}

// prescoreChunkCached is placeChunk's memoized pre-score: the chunk's jobs
// are deduped to distinct workloads once (level 1), then each prescored
// platform's distinct column is served through the shared cross-wave
// cache (level 2) keyed on the view's SlotStore version — the same
// versions the optimistic commit protocol validates at reserve time, so a
// cached column is provably the one this view would have scored. Misses
// from every column are scored in ONE batched policy call — matching the
// uncached path's single-batch efficiency — then scattered back and stored
// per column. The scoring epoch is captured once for the chunk, so a
// concurrent Observe publish mid-chunk narrows — never widens — the window
// of mixed-snapshot scores the uncached path already tolerates.
func (r *Replica) prescoreChunkCached(jobs []Job, shard []int, prescored []bool, scoreAt, rankAt []float64) {
	set := r.set
	nJ := len(jobs)
	sc := &r.scratch
	sc.reserveCache(len(shard), nJ)
	distinct, nD := dedupJobs(jobs, 0, sc.distinct, sc.dIdx)
	sc.distinct = distinct
	epoch := set.epoch()
	cached := 0
	qs := sc.colQ[:0]
	missAt := sc.missW[:0] // flat column-grid index (si*nD+d) per miss
	for si, p := range shard {
		if !prescored[si] {
			for j := 0; j < nJ; j++ {
				scoreAt[si*nJ+j] = math.NaN()
			}
			continue
		}
		v := &r.views[p]
		base := si * nD
		feas := sc.colFeas[base : base+nD]
		rank := sc.colRank[base : base+nD]
		hit := sc.colHit[base : base+nD]
		var lookStart time.Time
		if set.met != nil {
			lookStart = time.Now()
		}
		nHit := set.cache.lookup(p, v.ver, epoch, distinct, feas, rank, hit)
		if set.met != nil {
			set.met.CacheLookup.ObserveSince(lookStart)
		}
		cached += nHit
		if nHit == nD {
			continue
		}
		for d, w := range distinct {
			if !hit[d] {
				qs = append(qs, Query{Workload: w, Platform: p, Interferers: v.ks})
				missAt = append(missAt, base+d)
			}
		}
	}
	if len(qs) > 0 {
		missFeas := sc.missFeas[:len(qs)]
		missRank := sc.missRank[:len(qs)]
		var scoreStart time.Time
		if set.met != nil {
			scoreStart = time.Now()
		}
		set.policy.Score(set.pred, qs, missFeas, missRank)
		if set.met != nil {
			set.met.ScoreBatch.ObserveSince(scoreStart)
		}
		for i, at := range missAt {
			sc.colFeas[at], sc.colRank[at] = missFeas[i], missRank[i]
		}
		// Store each refreshed column back whole; entries that were hits
		// already exist under the same key and are skipped by the insert
		// guard, so this is one pass per column, not per miss.
		prev := -1
		for i, at := range missAt {
			si := at / nD
			if si == prev {
				continue
			}
			prev = si
			base := si * nD
			p := qs[i].Platform
			set.cache.store(p, r.views[p].ver, epoch, distinct,
				sc.colFeas[base:base+nD], sc.colRank[base:base+nD])
		}
	}
	for si := range shard {
		if !prescored[si] {
			continue
		}
		base := si * nD
		for j := 0; j < nJ; j++ {
			d := sc.dIdx[j]
			scoreAt[si*nJ+j] = sc.colFeas[base+d]
			rankAt[si*nJ+j] = sc.colRank[base+d]
		}
	}
	if set.rec != nil {
		set.rec.Record(obs.Event{Kind: obs.EvScore, Platform: -1, N: int32(nJ),
			Cached: int32(cached), Version: set.snapVersion()})
	}
}

// rescoreColumn re-scores platform p for jobs[from:] against the view's
// refreshed residents in one batched span, updating the chunk's score
// table. On the memoized path the column goes through the cache under the
// view's refreshed version: after a conflict refresh the column another
// replica just scored (and cached) for the same state is served without
// touching the predictor.
func (r *Replica) rescoreColumn(p int, jobs []Job, from int, scoreAt, rankAt []float64) {
	set := r.set
	nJ := len(jobs)
	si := r.slotOf[p]
	ks := r.views[p].ks
	sc := &r.scratch
	if set.cache != nil {
		distinct, nD := dedupJobs(jobs, from, sc.distinct, sc.dIdx)
		sc.distinct = distinct
		feas := sc.colFeas[:nD]
		rank := sc.colRank[:nD]
		scoreColumnCached(set.cache, set.met, set.pred, set.policy,
			sc, p, r.views[p].ver, set.epoch(), distinct, ks, feas, rank)
		for i, j := 0, from; j < nJ; i, j = i+1, j+1 {
			d := sc.dIdx[i]
			scoreAt[si*nJ+j] = feas[d]
			rankAt[si*nJ+j] = rank[d]
		}
		return
	}
	rescoreQ := sc.rescoreQ[:0]
	for j := from; j < nJ; j++ {
		rescoreQ = append(rescoreQ, Query{Workload: jobs[j].Workload, Platform: p, Interferers: ks})
	}
	rescore := sc.rescore[:len(rescoreQ)]
	rescoreRank := sc.rescoreRank[:len(rescoreQ)]
	set.policy.Score(set.pred, rescoreQ, rescore, rescoreRank)
	copy(scoreAt[si*nJ+from:(si+1)*nJ], rescore)
	copy(rankAt[si*nJ+from:(si+1)*nJ], rescoreRank)
}

// backoff spaces the k-th consecutive reserve retry: yield-only when no
// base delay is configured, capped exponential otherwise. Bounded by
// design — the caller sheds the job after MaxCommitRetries.
func (s *Scheduler) backoff(k int) {
	if s.commitBackoff <= 0 {
		runtime.Gosched()
		return
	}
	d := s.commitBackoff << uint(k-1)
	if d > s.commitBackoffMax || d <= 0 {
		d = s.commitBackoffMax
	}
	time.Sleep(d)
}
