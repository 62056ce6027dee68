package pitot

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sched"
)

// equalAssignment compares everything a placement decision carries,
// including the interference set the job was scored under.
func equalAssignment(a, b sched.Assignment) bool {
	if a.ID != b.ID || a.Platform != b.Platform || a.Budget != b.Budget ||
		a.Rejected != b.Rejected || a.Reason != b.Reason || a.Job != b.Job ||
		len(a.Interferers) != len(b.Interferers) {
		return false
	}
	for i := range a.Interferers {
		if a.Interferers[i] != b.Interferers[i] {
			return false
		}
	}
	return true
}

// TestScoreCacheRealPredictorDecisionIdentity is the acceptance property on
// the trained model: under dup-heavy waves, completions, and platform
// Fail/Degrade/Recover churn, the cache-on scheduler produces assignments
// bitwise identical to the cache-off one — same platforms, same budgets,
// same unplaced reasons.
func TestScoreCacheRealPredictorDecisionIdentity(t *testing.T) {
	pred, ds := enginePredictor(t)
	nP := ds.NumPlatforms()

	for _, pol := range []sched.Policy{
		sched.MeanBoundPolicy{Eps: 0.1},
		sched.BoundPolicy{Eps: 0.1},
	} {
		cfg := sched.Config{
			NumPlatforms:    nP,
			MaxColocation:   3,
			WaveChunk:       8,
			DegradedPenalty: 1.25,
		}
		cfgOn := cfg
		cfgOn.ScoreCache = true
		ref, err := sched.New(cfg, pol, pred)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := sched.New(cfgOn, pol, pred)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(41))
		var live []sched.JobID
		for op := 0; op < 60; op++ {
			switch k := rng.Intn(100); {
			case k < 55: // wave drawn from a small workload pool (heavy duplication)
				nJ := 1 + rng.Intn(12)
				jobs := make([]sched.Job, nJ)
				for i := range jobs {
					w := rng.Intn(6)
					jobs[i] = sched.Job{
						Workload: w,
						Deadline: pred.Estimate(w, rng.Intn(nP), nil) * (0.8 + 2*rng.Float64()),
					}
				}
				want := ref.PlaceAll(jobs)
				got := cached.PlaceAll(jobs)
				for i := range want {
					if !equalAssignment(got[i], want[i]) {
						t.Fatalf("%s op %d: job %d got %+v want %+v",
							pol.Name(), op, i, got[i], want[i])
					}
				}
				for _, a := range want {
					if a.Placed() {
						live = append(live, a.ID)
					}
				}
			case k < 75 && len(live) > 0:
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				wantErr := ref.Complete(id)
				if err := cached.Complete(id); (err == nil) != (wantErr == nil) {
					t.Fatalf("%s op %d: Complete(%d) = %v want %v", pol.Name(), op, id, err, wantErr)
				}
			case k < 85:
				p := rng.Intn(nP)
				want, wantErr := ref.Fail(p)
				got, err := cached.Fail(p)
				if (err == nil) != (wantErr == nil) || len(got) != len(want) {
					t.Fatalf("%s op %d: Fail(%d) = (%d, %v) want (%d, %v)",
						pol.Name(), op, p, len(got), err, len(want), wantErr)
				}
				for _, o := range want {
					for i, id := range live {
						if id == o.ID {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			case k < 93:
				p := rng.Intn(nP)
				wantErr := ref.Degrade(p)
				if err := cached.Degrade(p); (err == nil) != (wantErr == nil) {
					t.Fatalf("%s op %d: Degrade(%d) = %v want %v", pol.Name(), op, p, err, wantErr)
				}
			default:
				p := rng.Intn(nP)
				wantErr := ref.Recover(p)
				if err := cached.Recover(p); (err == nil) != (wantErr == nil) {
					t.Fatalf("%s op %d: Recover(%d) = %v want %v", pol.Name(), op, p, err, wantErr)
				}
			}
		}
		if st, on := cached.ScoreCacheStats(); !on || st.Hits == 0 {
			t.Errorf("%s: cached scheduler saw no hits (on=%v stats=%+v)", pol.Name(), on, st)
		}
	}
}

// TestScoreCacheIdentityAcrossObserveAndFastToggle pins the two epoch
// inputs on the real model: an Observe that publishes a fresh snapshot and
// a runtime fast-scoring toggle (same snapshot version, different kernel)
// must both invalidate cached columns, keeping the cached scheduler
// bitwise identical to an uncached one scoring through the same churn. A
// private predictor keeps the shared engine fixture's snapshot lineage
// untouched.
func TestScoreCacheIdentityAcrossObserveAndFastToggle(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(59, true))
	if err != nil {
		t.Fatal(err)
	}
	nP := ds.NumPlatforms()
	pol := sched.MeanBoundPolicy{Eps: 0.1}
	cfg := sched.Config{NumPlatforms: nP, MaxColocation: 3}
	cfgOn := cfg
	cfgOn.ScoreCache = true
	ref, err := sched.New(cfg, pol, pred)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := sched.New(cfgOn, pol, pred)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	wave := func() []sched.Job {
		jobs := make([]sched.Job, 8)
		for i := range jobs {
			w := rng.Intn(5)
			jobs[i] = sched.Job{
				Workload: w,
				Deadline: pred.Estimate(w, rng.Intn(nP), nil) * (0.8 + 2*rng.Float64()),
			}
		}
		return jobs
	}
	check := func(stage string) {
		jobs := wave()
		want := ref.PlaceAll(jobs)
		got := cached.PlaceAll(jobs)
		for i := range want {
			if !equalAssignment(got[i], want[i]) {
				t.Fatalf("%s: job %d got %+v want %+v", stage, i, got[i], want[i])
			}
		}
		for _, a := range want {
			if a.Placed() {
				if err := ref.Complete(a.ID); err != nil {
					t.Fatal(err)
				}
				if err := cached.Complete(a.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	check("cold")
	check("warm")

	// Snapshot publish: scores for the same (workload, platform) move. Two
	// waves per stage: the doorkeeper admits a changed epoch only on its
	// second sighting, so the second wave is the one that resets columns.
	if err := pred.ObserveSeconds([]sched.Measurement{
		{Workload: 0, Platform: 0, Seconds: pred.Estimate(0, 0, nil) * 1.5},
		{Workload: 1, Platform: 1, Seconds: pred.Estimate(1, 1, nil) * 0.7},
	}); err != nil {
		t.Fatal(err)
	}
	check("post-observe")
	check("post-observe-2")

	// Kernel toggle without a version bump: the epoch's fast bit must
	// invalidate on its own.
	pred.SetFastScoring(true)
	check("fast-on")
	check("fast-on-2")
	pred.SetFastScoring(false)
	check("fast-off")
	check("fast-off-2")

	st, on := cached.ScoreCacheStats()
	if !on || st.Hits == 0 || st.Invalidations == 0 {
		t.Fatalf("epoch churn not exercised: on=%v stats=%+v", on, st)
	}
}

// TestScoreCacheReplicaConcurrentSmoke drives a cache-on two-replica set
// from concurrent goroutines against the real model — the shared cache's
// locking discipline under the race detector — and checks job conservation:
// everything placed completes exactly once.
func TestScoreCacheReplicaConcurrentSmoke(t *testing.T) {
	pred, ds := enginePredictor(t)
	nP := ds.NumPlatforms()
	rs, err := sched.NewReplicated(
		sched.Config{NumPlatforms: nP, MaxColocation: 3, ScoreCache: true},
		sched.ReplicaConfig{Replicas: 2, Shards: 1},
		sched.MeanBoundPolicy{Eps: 0.1}, pred)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			r := rs.Replica(g)
			for round := 0; round < 10; round++ {
				jobs := make([]sched.Job, 6)
				for i := range jobs {
					w := rng.Intn(4)
					jobs[i] = sched.Job{
						Workload: w,
						Deadline: pred.Estimate(w, rng.Intn(nP), nil) * 3,
					}
				}
				for _, a := range r.PlaceAll(jobs) {
					if a.Placed() {
						if err := rs.Complete(a.ID); err != nil {
							t.Errorf("goroutine %d: Complete(%d): %v", g, a.ID, err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := rs.InFlight(); n != 0 {
		t.Fatalf("%d jobs still in flight after all completions", n)
	}
	if st, on := rs.ScoreCacheStats(); !on || st.Hits == 0 {
		t.Fatalf("shared cache unexercised: on=%v stats=%+v", on, st)
	}
}
