package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// decisionDigest folds a placement decision stream into one SHA-256, so a
// long seeded event sequence can be pinned by a single committed constant.
type decisionDigest struct{ h hash.Hash }

func newDecisionDigest() *decisionDigest { return &decisionDigest{h: sha256.New()} }

func (d *decisionDigest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *decisionDigest) int(v int)     { d.u64(uint64(int64(v))) }
func (d *decisionDigest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *decisionDigest) str(s string)  { d.int(len(s)); d.h.Write([]byte(s)) }
func (d *decisionDigest) sum() string   { return hex.EncodeToString(d.h.Sum(nil)) }

func (d *decisionDigest) flag(b bool) {
	if b {
		d.str("t")
	} else {
		d.str("f")
	}
}

func (d *decisionDigest) err(e error) {
	if e == nil {
		d.str("")
		return
	}
	d.str(e.Error())
}

// assignment folds every field a placement decision carries.
func (d *decisionDigest) assignment(a Assignment) {
	d.int(a.Platform)
	d.u64(uint64(a.ID))
	d.f64(a.Budget)
	d.flag(a.Rejected)
	d.str(a.Reason)
	d.int(a.Job.Workload)
	d.f64(a.Job.Deadline)
	d.int(len(a.Interferers))
	for _, k := range a.Interferers {
		d.int(k)
	}
}

// singleReplicaSequence replays one seeded lifecycle sequence — random
// policy, strategy, chunking, scoring path (scalar, batch, fused), and a
// mix of waves, breaker-fed completions, Fail, Degrade, and Recover —
// through a fresh single-replica scheduler and returns the digest of
// every assignment, orphan list, outcome, and error it produced, the
// in-flight count after each step, and the final health and failure
// counters.
func singleReplicaSequence(t *testing.T, seed int64) string {
	policies := []Policy{MeanPolicy{}, BoundPolicy{Eps: 0.1}, MeanBoundPolicy{Eps: 0.1}, PaddedBoundPolicy{Eps: 0.2, Factor: 1.3}}
	strategies := []Strategy{LeastLoaded{}, BestFit{}, UtilizationAware{}}
	rng := rand.New(rand.NewSource(800 + seed))
	nP := 3 + rng.Intn(6)
	base := make([]float64, nP)
	for i := range base {
		base[i] = 0.5 + 2*rng.Float64()
	}
	pol := policies[rng.Intn(len(policies))]
	strat := strategies[rng.Intn(len(strategies))]
	cfg := Config{
		NumPlatforms:  nP,
		MaxColocation: 1 + rng.Intn(3),
		MaxInFlight:   4 + rng.Intn(10),
		WaveChunk:     []int{0, 1, 2, 3, -1}[rng.Intn(5)],
		Strategy:      strat,
		Breaker:       BreakerConfig{Threshold: 0.5, Window: 4, Probation: 2},
	}
	scalar := rng.Float64() < 0.33
	var pred Predictor
	if rng.Float64() < 0.5 {
		pred = &fusedFake{batchPred: &batchPred{Predictor: variedPred{base}}}
	} else {
		pred = &batchPred{Predictor: variedPred{base}}
	}
	if scalar {
		pred = scalarOnly{pred}
	}
	s := mustNew(t, cfg, pol, pred)
	d := newDecisionDigest()
	var live []JobID
	drop := func(id JobID) {
		for j, l := range live {
			if l == id {
				live = append(live[:j], live[j+1:]...)
				return
			}
		}
	}
	for i := 0; i < 70; i++ {
		switch op := rng.Float64(); {
		case len(live) > 0 && op < 0.25:
			id := live[rng.Intn(len(live))]
			miss := rng.Float64() < 0.4
			tripped, err := s.CompleteOutcome(id, miss)
			d.str("complete")
			d.u64(uint64(id))
			d.flag(miss)
			d.flag(tripped)
			d.err(err)
			if err == nil {
				drop(id)
			}
		case op < 0.32:
			p := rng.Intn(nP)
			orphans, err := s.Fail(p)
			d.str("fail")
			d.int(p)
			d.err(err)
			d.int(len(orphans))
			for _, o := range orphans {
				d.u64(uint64(o.ID))
				d.int(o.Job.Workload)
				d.f64(o.Job.Deadline)
				drop(o.ID)
			}
		case op < 0.38:
			p := rng.Intn(nP)
			d.str("degrade")
			d.int(p)
			d.err(s.Degrade(p))
		case op < 0.46:
			p := rng.Intn(nP)
			d.str("recover")
			d.int(p)
			d.err(s.Recover(p))
		default:
			n := 1 + rng.Intn(6)
			jobs := make([]Job, n)
			for j := range jobs {
				jobs[j] = Job{Workload: rng.Intn(20), Deadline: 0.3 + 6*rng.Float64()}
			}
			d.str("wave")
			for _, a := range s.PlaceAll(jobs) {
				d.assignment(a)
				if a.Placed() {
					live = append(live, a.ID)
				}
			}
		}
		d.int(s.InFlight())
	}
	d.str("end")
	for _, h := range s.HealthSnapshot() {
		d.int(int(h))
	}
	fs := s.FailureStats()
	for _, v := range []uint64{fs.Fails, fs.Degrades, fs.Recovers, fs.Orphaned, fs.Trips, fs.Readmissions, fs.Closes} {
		d.u64(v)
	}
	if cs := s.ConflictStats(); cs.Conflicts != 0 || cs.Shed != 0 {
		t.Errorf("seed %d: single uncontended replica saw conflicts: %+v", seed, cs)
	}
	return d.sum()
}

// singleReplicaGolden holds the digests of singleReplicaSequence for seeds
// 0–9. They were recorded from the mutex-guarded scheduler this package
// shipped before the SlotStore engine became its only placement engine
// (the two agreed bitwise on every seed), so they pin that the merge
// changed no decision. Budgets are hashed bit for bit; the fake
// predictors use only multiplications and additions, which amd64 never
// fuses, so the digests are exact there.
var singleReplicaGolden = [...]string{
	"27b9c4255d7221eca57a06a353747f7499e50c911867e44f9c15690ef0a71605",
	"c083b7a078109bdd5e4893a907378ba8fe3cdf64a3ef762966af488c86d5de5b",
	"84589ca75d77f4b6d9972df66febd67af529b21b336bd546cd7509f14074affa",
	"27d6a5749d790da2db9ea7b670fcd67f9576ec4abdba90a28ab02621a7a85ab7",
	"f42a9d587e9088626814f9611f8429c91ca44cdf48a6afa7f3aba6cc26155586",
	"763f9c572902c23c3a44a3221b3f61f567c70acb5456e9f4a74eec60b9322763",
	"aa2593a207859ab9780c9d824def8aa758532bd4e450d60c622bad03b99ac20c",
	"9ad72c21731d1ce3ea54a17a3a5984f53a393b9f85eea623ee708e72af06b5e4",
	"53fe1bb7e617d04e5d6972a0f29cb5619640f58c2f8fd270a06c8f8e60a26dd5",
	"b2dc1902fc91f897fc06e0c49210cc5acb00cc2616e0ef91ab3db48848fcb6af",
}

// TestReplicaIdentitySingleReplica pins the single-replica engine to the
// recorded decision streams: same platforms, budgets, job IDs, interferer
// sets, rejection reasons, orphans, breaker trips, health transitions,
// and error values, across fused, batch, and scalar scoring. An
// uncontended replica must also never see a commit conflict.
func TestReplicaIdentitySingleReplica(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64; other architectures may fuse multiply-add")
	}
	for seed := int64(0); seed < int64(len(singleReplicaGolden)); seed++ {
		if got := singleReplicaSequence(t, seed); got != singleReplicaGolden[seed] {
			t.Errorf("seed %d: decision digest %s, want %s", seed, got, singleReplicaGolden[seed])
		}
	}
}
