package sched

import (
	"math/rand"
	"testing"
)

// epochPred is a deterministic varied predictor whose scores depend on a
// mutable epoch — a stand-in for Observe snapshot publishes. It implements
// the batch facet by looping the scalar calls (bitwise batch/scalar
// agreement) and counts queries scored through the batch path, so tests
// can assert how much predictor work the cache actually eliminated.
type epochPred struct {
	base    []float64
	epoch   uint64
	queries int64
}

func (e *epochPred) factor() float64 { return 1 + 0.05*float64(e.epoch%7) }

func (e *epochPred) EstimateSeconds(w, p int, ks []int) float64 {
	v := e.base[p] * (1 + 0.21*float64(w%5)) * (1 + 0.37*float64(len(ks))) * e.factor()
	for _, k := range ks {
		v *= 1 + 0.013*float64(k%7)
	}
	return v
}

func (e *epochPred) BoundSeconds(w, p int, ks []int, eps float64) float64 {
	return e.EstimateSeconds(w, p, ks) * (1 + 0.5*(1-eps))
}

func (e *epochPred) EstimateSecondsBatch(qs []Query) []float64 {
	e.queries += int64(len(qs))
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = e.EstimateSeconds(q.Workload, q.Platform, q.Interferers)
	}
	return out
}

func (e *epochPred) BoundSecondsBatch(qs []Query, eps float64) []float64 {
	e.queries += int64(len(qs))
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = e.BoundSeconds(q.Workload, q.Platform, q.Interferers, eps)
	}
	return out
}

func (e *epochPred) ScoreEpoch() uint64 { return e.epoch }
func (e *epochPred) Version() uint64    { return e.epoch }

// scalarEpochPred hides an epochPred's batch facet but keeps its scoring
// epoch: the scheduler scores it through its scalar adapter, and must still
// read the epoch off the caller's predictor.
type scalarEpochPred struct{ scalarOnly }

func (s scalarEpochPred) ScoreEpoch() uint64 { return s.Predictor.(*epochPred).ScoreEpoch() }

// TestScoreCacheDecisionIdentityUnderChurn is the tentpole property on the
// fake predictor: for seeded random op sequences — dup-heavy waves,
// completions with breaker outcomes, Fail/Degrade/Recover churn, and
// mid-stream scoring-epoch bumps — the cache-on scheduler produces
// assignments bitwise identical to the cache-off one, including job IDs,
// budgets, unplaced reasons, and orphan sets. Each policy runs on the
// batch predictor and on a scalar-only one exposing the same epoch.
func TestScoreCacheDecisionIdentityUnderChurn(t *testing.T) {
	policies := []Policy{MeanPolicy{}, BoundPolicy{Eps: 0.1}, MeanBoundPolicy{Eps: 0.1}}
	for seed := int64(0); seed < 6; seed++ {
		for ci := 0; ci < 2*len(policies); ci++ {
			pi, scalar := ci%len(policies), ci >= len(policies)
			pol := policies[pi]
			name := pol.Name()
			if scalar {
				name += "/scalar"
			}
			rng := rand.New(rand.NewSource(seed*31 + int64(pi)))
			nP := 3 + rng.Intn(5)
			base := make([]float64, nP)
			for p := range base {
				base[p] = 0.5 + 3*rng.Float64()
			}
			pred := &epochPred{base: base}
			var sp Predictor = pred
			if scalar {
				sp = scalarEpochPred{scalarOnly{pred}}
			}
			cfg := Config{
				NumPlatforms:  nP,
				MaxColocation: 3,
				WaveChunk:     4,
				Breaker:       BreakerConfig{Threshold: 0.5, Window: 4, Probation: 2},
			}
			cfgOn := cfg
			cfgOn.ScoreCache = true
			ref := mustNew(t, cfg, pol, sp)
			cached := mustNew(t, cfgOn, pol, sp)

			var live []JobID
			var retired []JobID
			for op := 0; op < 160; op++ {
				switch k := rng.Intn(100); {
				case k < 50: // wave with heavy workload duplication
					nJ := 1 + rng.Intn(10)
					jobs := make([]Job, nJ)
					for i := range jobs {
						w := rng.Intn(6)
						jobs[i] = Job{
							Workload: w,
							Deadline: pred.EstimateSeconds(w, rng.Intn(nP), nil) * (0.5 + 2.5*rng.Float64()),
						}
					}
					want := ref.PlaceAll(jobs)
					got := cached.PlaceAll(jobs)
					for i := range want {
						if !sameAssignment(got[i], want[i]) || got[i].Reason != want[i].Reason {
							t.Fatalf("seed %d %s op %d: job %d got %+v want %+v",
								seed, name, op, i, got[i], want[i])
						}
					}
					for _, a := range want {
						if a.Placed() {
							live = append(live, a.ID)
						}
					}
				case k < 65 && len(live) > 0: // complete (sometimes with a breaker outcome)
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					retired = append(retired, id)
					if rng.Intn(2) == 0 {
						miss := rng.Intn(3) == 0
						wantTrip, wantErr := ref.CompleteOutcome(id, miss)
						trip, err := cached.CompleteOutcome(id, miss)
						if trip != wantTrip || (err == nil) != (wantErr == nil) {
							t.Fatalf("seed %d %s op %d: CompleteOutcome(%d) = (%v,%v) want (%v,%v)",
								seed, name, op, id, trip, err, wantTrip, wantErr)
						}
					} else {
						wantErr := ref.Complete(id)
						if err := cached.Complete(id); (err == nil) != (wantErr == nil) {
							t.Fatalf("seed %d %s op %d: Complete(%d) = %v want %v",
								seed, name, op, id, err, wantErr)
						}
					}
				case k < 72 && len(retired) > 0: // duplicate completion of a retired ID
					id := retired[rng.Intn(len(retired))]
					wantErr := ref.Complete(id)
					if err := cached.Complete(id); (err == nil) != (wantErr == nil) {
						t.Fatalf("seed %d %s op %d: stale Complete(%d) = %v want %v",
							seed, name, op, id, err, wantErr)
					}
				case k < 80: // platform failure orphans residents
					p := rng.Intn(nP)
					want, wantErr := ref.Fail(p)
					got, err := cached.Fail(p)
					if (err == nil) != (wantErr == nil) || len(got) != len(want) {
						t.Fatalf("seed %d %s op %d: Fail(%d) = (%d orphans, %v) want (%d, %v)",
							seed, name, op, p, len(got), err, len(want), wantErr)
					}
					for i := range want {
						if got[i].ID != want[i].ID || got[i].Job != want[i].Job {
							t.Fatalf("seed %d %s op %d: orphan %d = %+v want %+v",
								seed, name, op, i, got[i], want[i])
						}
					}
					for _, o := range want {
						for i, id := range live {
							if id == o.ID {
								live = append(live[:i], live[i+1:]...)
								break
							}
						}
						retired = append(retired, o.ID)
					}
				case k < 86: // degrade
					p := rng.Intn(nP)
					wantErr := ref.Degrade(p)
					if err := cached.Degrade(p); (err == nil) != (wantErr == nil) {
						t.Fatalf("seed %d %s op %d: Degrade(%d) = %v want %v",
							seed, name, op, p, err, wantErr)
					}
				case k < 92: // recover
					p := rng.Intn(nP)
					wantErr := ref.Recover(p)
					if err := cached.Recover(p); (err == nil) != (wantErr == nil) {
						t.Fatalf("seed %d %s op %d: Recover(%d) = %v want %v",
							seed, name, op, p, err, wantErr)
					}
				default: // snapshot publish: every cached column goes stale
					pred.epoch++
				}
			}
			if st, on := cached.ScoreCacheStats(); !on || st.Hits == 0 {
				t.Errorf("seed %d %s: cached scheduler saw no hits (on=%v stats=%+v)", seed, name, on, st)
			}
		}
	}
}

// infeasibleWave builds n distinct-workload jobs no platform can serve in
// time: they are scored everywhere (filling the cache) but never placed,
// so no slot version moves between waves.
func infeasibleWave(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Workload: i, Deadline: 1e-12}
	}
	return jobs
}

// TestScoreCacheCountersAndInvalidation pins the counter semantics: cold
// misses, steady-state full hits, whole-cache staleness on an epoch bump,
// single-column staleness on a platform mutation, and the doorkeeper
// admission delay — a changed (ver, epoch) key is stored only on its
// second consecutive sighting, so a stale column invalidates one wave
// after the key change, not on it.
func TestScoreCacheCountersAndInvalidation(t *testing.T) {
	pred := &epochPred{base: []float64{1, 2, 3}}
	s := mustNew(t, Config{NumPlatforms: 3, ScoreCache: true}, MeanPolicy{}, pred)
	wave := infeasibleWave(5)

	// Cold columns admit immediately: no doorkeeper delay on first touch.
	s.PlaceAll(wave)
	st, on := s.ScoreCacheStats()
	if !on {
		t.Fatal("cache not enabled")
	}
	if st.Hits != 0 || st.Misses != 15 || st.Entries != 15 {
		t.Fatalf("cold wave: %+v", st)
	}

	s.PlaceAll(wave)
	if st, _ = s.ScoreCacheStats(); st.Hits != 15 || st.Misses != 15 {
		t.Fatalf("warm wave: %+v", st)
	}
	if pred.queries != 15 {
		t.Fatalf("predictor scored %d queries, want 15 (second wave fully cached)", pred.queries)
	}

	// Epoch bump: every column is stale. The first wave under the new epoch
	// misses but is held at the doorkeeper (no reset, stale entries kept);
	// the second sighting admits it, resetting all three columns.
	pred.epoch++
	s.PlaceAll(wave)
	if st, _ = s.ScoreCacheStats(); st.Hits != 15 || st.Misses != 30 || st.Invalidations != 0 || st.Entries != 15 {
		t.Fatalf("first wave after epoch bump (doorkeeper hold): %+v", st)
	}
	s.PlaceAll(wave)
	if st, _ = s.ScoreCacheStats(); st.Hits != 15 || st.Misses != 45 || st.Invalidations != 3 {
		t.Fatalf("second wave after epoch bump (admitted): %+v", st)
	}
	s.PlaceAll(wave)
	if st, _ = s.ScoreCacheStats(); st.Hits != 30 || st.Misses != 45 {
		t.Fatalf("steady state under new epoch: %+v", st)
	}

	// Platform mutation: only platform 0's column goes stale, and only it
	// pays the one-wave admission delay — the other columns keep hitting.
	if err := s.Degrade(0); err != nil {
		t.Fatal(err)
	}
	s.PlaceAll(wave)
	if st, _ = s.ScoreCacheStats(); st.Hits != 40 || st.Misses != 50 || st.Invalidations != 3 {
		t.Fatalf("first wave after Degrade(0) (doorkeeper hold): %+v", st)
	}
	s.PlaceAll(wave)
	if st, _ = s.ScoreCacheStats(); st.Hits != 50 || st.Misses != 55 || st.Invalidations != 4 {
		t.Fatalf("second wave after Degrade(0) (admitted): %+v", st)
	}
	s.PlaceAll(wave)
	if st, _ = s.ScoreCacheStats(); st.Hits != 65 || st.Misses != 55 {
		t.Fatalf("steady state after Degrade(0): %+v", st)
	}
	if st.Entries != 15 {
		t.Fatalf("entries %d, want 15", st.Entries)
	}
}

// TestScoreCacheEvictionBound pins the memory bound: a column holds at
// most cap/nPlatforms entries (floored), evicted FIFO and counted.
func TestScoreCacheEvictionBound(t *testing.T) {
	pred := &epochPred{base: []float64{1}}
	// Cap 1 floors to minScoreCacheCol entries for the single platform.
	s := mustNew(t, Config{NumPlatforms: 1, ScoreCache: true, ScoreCacheCap: 1}, MeanPolicy{}, pred)
	s.PlaceAll(infeasibleWave(12))
	st, _ := s.ScoreCacheStats()
	if st.Entries != minScoreCacheCol || st.Evictions != 12-minScoreCacheCol {
		t.Fatalf("eviction bound: %+v (perCol %d)", st, minScoreCacheCol)
	}
	// The survivors are the FIFO tail: workloads 4..11 hit, 0..3 re-miss.
	s.PlaceAll(infeasibleWave(12))
	st2, _ := s.ScoreCacheStats()
	if hits := st2.Hits - st.Hits; hits != uint64(minScoreCacheCol) {
		t.Fatalf("second wave hits %d, want %d", hits, minScoreCacheCol)
	}
}

// TestScoreCacheIntraWaveDedup pins level 1: a dup-heavy wave collapses to
// distinctWorkloads×platform queries before the predictor is consulted.
func TestScoreCacheIntraWaveDedup(t *testing.T) {
	pred := &epochPred{base: []float64{1, 2, 3, 4}}
	s := mustNew(t, Config{NumPlatforms: 4, ScoreCache: true}, MeanPolicy{}, pred)
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = Job{Workload: i % 3, Deadline: 1e-12}
	}
	s.PlaceAll(jobs)
	if pred.queries != 12 { // 3 distinct workloads × 4 platforms
		t.Fatalf("predictor scored %d queries, want 12 (deduped from %d)", pred.queries, 12*4)
	}
}

// TestScoreCacheSharedAcrossReplicas pins the cross-replica contract: the
// cache keys on SlotStore versions, so one replica's cold scoring serves
// another replica's identical view wholesale.
func TestScoreCacheSharedAcrossReplicas(t *testing.T) {
	pred := &epochPred{base: []float64{1, 2, 3, 4}}
	rs, err := NewReplicated(Config{NumPlatforms: 4, ScoreCache: true},
		ReplicaConfig{Replicas: 2, Shards: 1}, MeanPolicy{}, pred)
	if err != nil {
		t.Fatal(err)
	}
	wave := infeasibleWave(6)
	rs.Replica(0).PlaceAll(wave)
	st, on := rs.ScoreCacheStats()
	if !on || st.Hits != 0 || st.Misses != 24 {
		t.Fatalf("replica 0 cold wave: on=%v %+v", on, st)
	}
	rs.Replica(1).PlaceAll(wave)
	if st, _ = rs.ScoreCacheStats(); st.Hits != 24 {
		t.Fatalf("replica 1 warm wave: %+v", st)
	}
}

// TestScoreCacheStableWaveAllocsNoWorse guards the hot path: once warm, a
// fully cached steady-state wave allocates no more than the identical
// uncached wave (it allocates strictly less predictor scratch, but the
// pinned contract is simply "no worse").
func TestScoreCacheStableWaveAllocsNoWorse(t *testing.T) {
	mk := func(cache bool) *Scheduler {
		pred := &epochPred{base: []float64{1, 2, 3, 4}}
		cfg := Config{NumPlatforms: 4, ScoreCache: cache}
		return mustNew(t, cfg, MeanPolicy{}, pred)
	}
	wave := infeasibleWave(8)
	measure := func(s *Scheduler) float64 {
		s.PlaceAll(wave) // warm scratch and cache
		return testing.AllocsPerRun(100, func() { s.PlaceAll(wave) })
	}
	off := measure(mk(false))
	on := measure(mk(true))
	if on > off {
		t.Fatalf("cached steady-state wave allocates more than uncached: %v > %v", on, off)
	}
}
