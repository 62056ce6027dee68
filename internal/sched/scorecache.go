package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ScoreCache is the cross-wave score-reuse layer (level 2 of the memoized
// wave-scoring path): a bounded per-platform cache of post-policy score
// columns keyed on (workload, platform-slots version, scoring epoch). A
// platform's interference term — and therefore every score on it — is a
// pure function of its resident set and the predictor snapshot, so an
// entry stays bitwise-exact until either changes:
//
//   - the slots version is the platform's mutation counter (placement,
//     completion, failure-lifecycle event): any resident change bumps it
//     and the whole column misses on next lookup;
//   - the epoch encodes the predictor's scoring configuration (snapshot
//     version plus the fast-scoring mode bit, via the scoreEpocher facet):
//     an Observe publish or a SetFastScoring toggle invalidates every
//     column at once.
//
// Entries hold raw post-policy scores, before the degraded penalty —
// padding is applied per-use on candidates, so cached columns serve
// healthy and degraded selections alike. The policy identity and eps are
// fixed per scheduler instance (a cache is built by New/NewReplicated and
// never shared across configurations), so they key the cache by
// construction rather than by hash.
//
// Memory is bounded: each platform column holds at most cap/nPlatforms
// entries, evicted FIFO. Eviction and invalidation only cost future hits,
// never correctness — a miss re-scores through the predictor and yields
// the identical float64s the uncached path would produce.
//
// Stores are gated by a doorkeeper admission check: when a store arrives
// under a (ver, epoch) key different from the column's, the first sighting
// only records the key as a candidate and the column is left untouched;
// the reset-and-fill happens on the second consecutive sighting of the
// same key. A platform whose slots version moves every wave (heavy churn)
// therefore pays two integer compares per store instead of a map reset
// plus per-workload inserts that could never be read back, while a stable
// platform reaches steady-state hits one wave later than an eager store
// would. Cold columns (never filled) admit immediately, so first-touch
// warm-up is not delayed.
//
// Safe for concurrent use: each column carries its own mutex (replicas
// sharing a cache contend only when scoring the same platform), counters
// are atomics.
type ScoreCache struct {
	perCol int
	cols   []scoreCol

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
	entries       atomic.Int64
}

// scoreEntry is one cached (workload, platform) score pair: the policy's
// feasibility facet and its ranking facet (equal on single-head policies).
type scoreEntry struct {
	feas, rank float64
}

// scoreCol is one platform's cached column. vals is keyed by workload;
// order/head implement FIFO eviction without shifting. candVer/candEpoch
// is the doorkeeper: the last mismatched store key seen, admitted for a
// full reset-and-fill only when sighted twice in a row.
type scoreCol struct {
	mu        sync.Mutex
	ver       uint64
	epoch     uint64
	candVer   uint64
	candEpoch uint64
	vals      map[int]scoreEntry
	order     []int
	head      int
}

// defaultScoreCacheCap bounds total cached entries across all platforms
// when Config.ScoreCacheCap is 0. At 16 bytes per entry plus map overhead
// this keeps the whole cache comfortably under a megabyte.
const defaultScoreCacheCap = 4096

// minScoreCacheCol is the per-platform entry floor: even on huge clusters
// a column can hold at least one small wave's distinct workloads.
const minScoreCacheCol = 8

// newScoreCache builds a cache for nPlatforms platforms holding at most
// capTotal entries across them (0 = defaultScoreCacheCap).
func newScoreCache(nPlatforms, capTotal int) *ScoreCache {
	if capTotal <= 0 {
		capTotal = defaultScoreCacheCap
	}
	perCol := capTotal / nPlatforms
	if perCol < minScoreCacheCol {
		perCol = minScoreCacheCol
	}
	return &ScoreCache{
		perCol: perCol,
		cols:   make([]scoreCol, nPlatforms),
	}
}

// ScoreCacheStats is a point-in-time copy of the cache counters. Hits and
// Misses count per-workload column lookups (distinct workloads after
// intra-wave dedup, not raw wave queries); Evictions counts FIFO
// capacity evictions, Invalidations whole-column resets on a version or
// epoch change, and Entries the current resident entry count.
type ScoreCacheStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Entries       int64
}

// Stats returns the cache counters. Nil-safe (zero stats).
func (c *ScoreCache) Stats() ScoreCacheStats {
	if c == nil {
		return ScoreCacheStats{}
	}
	return ScoreCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.entries.Load(),
	}
}

// lookup fills feas[d]/rank[d] and sets hit[d] for every distinct workload
// ws[d] cached for platform p at exactly (ver, epoch), returning the hit
// count. A column keyed to any other (ver, epoch) misses wholesale without
// being cleared — the reset happens on the store that follows, so a
// replica scoring against a momentarily stale snapshot cannot wipe a
// fresher replica's column just by reading.
func (c *ScoreCache) lookup(p int, ver, epoch uint64, ws []int, feas, rank []float64, hit []bool) int {
	col := &c.cols[p]
	n := 0
	col.mu.Lock()
	if col.ver == ver && col.epoch == epoch && col.vals != nil {
		for d, w := range ws {
			if e, ok := col.vals[w]; ok {
				feas[d], rank[d] = e.feas, e.rank
				hit[d] = true
				n++
			} else {
				hit[d] = false
			}
		}
	} else {
		for d := range ws {
			hit[d] = false
		}
	}
	col.mu.Unlock()
	c.hits.Add(uint64(n))
	c.misses.Add(uint64(len(ws) - n))
	return n
}

// store inserts freshly scored entries (ws[i] -> feas[i], rank[i]) into
// platform p's column under (ver, epoch). A non-empty column keyed to a
// different version or epoch goes through the doorkeeper: the first store
// under the new key only records it as a candidate (the stale column is
// kept — lookups already reject it by key), and the second consecutive
// sighting resets the column (counted as an invalidation) and fills it.
// Inserts beyond the per-column cap evict FIFO.
func (c *ScoreCache) store(p int, ver, epoch uint64, ws []int, feas, rank []float64) {
	col := &c.cols[p]
	var evicted, invalidated uint64
	var delta int64
	col.mu.Lock()
	if col.ver != ver || col.epoch != epoch {
		if len(col.vals) > 0 {
			if col.candVer != ver || col.candEpoch != epoch {
				col.candVer, col.candEpoch = ver, epoch
				col.mu.Unlock()
				return
			}
			invalidated = 1
			delta -= int64(len(col.vals))
			clear(col.vals)
		}
		col.order = col.order[:0]
		col.head = 0
		col.ver, col.epoch = ver, epoch
	}
	if col.vals == nil {
		col.vals = make(map[int]scoreEntry, c.perCol)
	}
	for i, w := range ws {
		if _, ok := col.vals[w]; !ok {
			for len(col.vals) >= c.perCol {
				old := col.order[col.head]
				col.head++
				delete(col.vals, old)
				evicted++
				delta--
			}
			col.order = append(col.order, w)
			delta++
		}
		col.vals[w] = scoreEntry{feas: feas[i], rank: rank[i]}
	}
	// Compact the FIFO ring once the dead prefix dominates, so order does
	// not grow unboundedly across evictions.
	if col.head > 0 && col.head*2 >= len(col.order) {
		col.order = append(col.order[:0], col.order[col.head:]...)
		col.head = 0
	}
	col.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
	if invalidated > 0 {
		c.invalidations.Add(invalidated)
	}
	if delta != 0 {
		c.entries.Add(delta)
	}
}

// scoreEpocher is the optional predictor facet exposing a scoring epoch:
// an opaque value that changes whenever the predictor would score the same
// query differently (new snapshot version, fast-scoring toggle). The Pitot
// facade implements it; predictors exposing only snapshotVersioner fall
// back to the snapshot version, and epoch-less predictors pin epoch 0 —
// safe only when the predictor is immutable for the cache's lifetime.
type scoreEpocher interface{ ScoreEpoch() uint64 }

// resolveEpochFn picks the scoring-epoch source for a cache-enabled
// scheduler. pred must be the caller's predictor, not the loopPredictor
// adapter, which hides both facets.
func resolveEpochFn(pred Predictor) func() uint64 {
	switch pv := pred.(type) {
	case scoreEpocher:
		return pv.ScoreEpoch
	case snapshotVersioner:
		return pv.Version
	}
	return nil
}

// dedupJobs collapses jobs[from:] to their distinct workloads (level 1 of
// the memoized wave-scoring path): distinct is filled in first-appearance
// order and dIdx[i] is the distinct index of jobs[from+i]. The scan is
// quadratic in the distinct count, which is bounded by the chunk size —
// a few dozen well-predicted comparisons, no map, no allocation.
func dedupJobs(jobs []Job, from int, distinct []int, dIdx []int) ([]int, int) {
	distinct = distinct[:0]
	for i, o := from, 0; i < len(jobs); i, o = i+1, o+1 {
		w := jobs[i].Workload
		d := -1
		for k, dw := range distinct {
			if dw == w {
				d = k
				break
			}
		}
		if d < 0 {
			d = len(distinct)
			distinct = append(distinct, w)
		}
		dIdx[o] = d
	}
	return distinct, len(distinct)
}

// scoreColumnCached scores platform p's distinct-workload column through
// the cache: cached entries are copied out, the remainder is scored in one
// batched policy call over residents ks and stored back under (ver,
// epoch). feas/rank must be len(ws). Returns how many of the column's
// scores were served from the cache.
//
// The batched kernels score each query independently (queries sharing a
// (platform, interferer-set) group fold interference once but emit
// per-query values), so a column assembled from cached and fresh entries
// is bitwise what one full batched call would produce.
func scoreColumnCached(
	cache *ScoreCache, met *obs.SchedMetrics,
	pred BatchPredictor, policy Policy,
	sc *waveScratch, p int, ver, epoch uint64, ws, ks []int,
	feas, rank []float64,
) int {
	hit := sc.colHit[:len(ws)]
	var lookStart time.Time
	if met != nil {
		lookStart = time.Now()
	}
	nHit := cache.lookup(p, ver, epoch, ws, feas, rank, hit)
	if met != nil {
		met.CacheLookup.ObserveSince(lookStart)
	}
	if nHit == len(ws) {
		return nHit
	}
	missW := sc.missW[:0]
	qs := sc.colQ[:0]
	for d, w := range ws {
		if hit[d] {
			continue
		}
		missW = append(missW, w)
		qs = append(qs, Query{Workload: w, Platform: p, Interferers: ks})
	}
	missFeas := sc.missFeas[:len(qs)]
	missRank := sc.missRank[:len(qs)]
	var scoreStart time.Time
	if met != nil {
		scoreStart = time.Now()
	}
	policy.Score(pred, qs, missFeas, missRank)
	if met != nil {
		met.ScoreBatch.ObserveSince(scoreStart)
	}
	mi := 0
	for d := range ws {
		if hit[d] {
			continue
		}
		feas[d], rank[d] = missFeas[mi], missRank[mi]
		mi++
	}
	cache.store(p, ver, epoch, missW, missFeas, missRank)
	return nHit
}
