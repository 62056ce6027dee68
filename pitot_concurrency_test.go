package pitot

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
)

// boundsPred lazily trains one bounds-enabled predictor shared by the
// read-only concurrency and persistence tests (training dominates test
// time; none of these tests mutate the predictor's published state beyond
// the idempotent bounder cache).
var boundsPred struct {
	once sync.Once
	ds   *Dataset
	pred *Predictor
	err  error
}

func sharedBoundsPredictor(t *testing.T) (*Predictor, *Dataset) {
	t.Helper()
	boundsPred.once.Do(func() {
		boundsPred.ds = smallDataset()
		boundsPred.pred, boundsPred.err = Train(boundsPred.ds, smallOptions(42, true))
	})
	if boundsPred.err != nil {
		t.Fatal(boundsPred.err)
	}
	return boundsPred.pred, boundsPred.ds
}

// TestConcurrentBoundCalibration is the regression test for the PR 1 data
// race: two concurrent Bound calls with a fresh eps both wrote the
// Predictor.bounders map. The snapshot design publishes calibrations with
// a copy-on-write swap, so this test must pass under `go test -race`.
func TestConcurrentBoundCalibration(t *testing.T) {
	pred, _ := sharedBoundsPredictor(t)
	epsGrid := []float64{0.02, 0.04, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(epsGrid); i++ {
				eps := epsGrid[(g+i)%len(epsGrid)]
				b, err := pred.Bound(1, 1, []int{2}, eps)
				if err != nil {
					t.Error(err)
					return
				}
				if !(b > 0) {
					t.Errorf("bound = %v", b)
					return
				}
				bs, err := pred.BoundBatch([]Query{{Workload: 1, Platform: 1, Interferers: []int{2}}}, eps)
				if err != nil {
					t.Error(err)
					return
				}
				if bs[0] != b {
					t.Errorf("batch bound %v vs scalar %v at eps %v", bs[0], b, eps)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Every eps calibrated under the race must produce the same bounder as
	// a quiet recalibration (calibration is deterministic per snapshot).
	for _, eps := range epsGrid {
		b1, err := pred.Bound(2, 0, nil, eps)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := pred.Bound(2, 0, nil, eps)
		if err != nil {
			t.Fatal(err)
		}
		if b1 != b2 {
			t.Fatalf("bound not stable at eps %v: %v vs %v", eps, b1, b2)
		}
	}
}

// TestConcurrentEstimateObserve runs reader goroutines against a predictor
// while Observe publishes new snapshots. Readers assert (a) versions are
// monotonically non-decreasing, (b) estimates are always finite and
// positive, and (c) an estimate straddled by two loads of the same version
// is bitwise equal to that snapshot's published value — i.e. never a torn
// model. Run under `go test -race`.
func TestConcurrentEstimateObserve(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(21, false))
	if err != nil {
		t.Fatal(err)
	}
	probe := func() float64 { return pred.Estimate(1, 1, []int{2, 3}) }
	var expected sync.Map // version -> bitwise estimate for the probe query
	expected.Store(pred.Version(), probe())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			q := Query{Workload: 1, Platform: 1, Interferers: []int{2, 3}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				v1 := pred.Version()
				if v1 < last {
					t.Errorf("snapshot version went backwards: %d -> %d", last, v1)
					return
				}
				last = v1
				got := probe()
				if !(got > 0) || math.IsInf(got, 0) || math.IsNaN(got) {
					t.Errorf("estimate = %v", got)
					return
				}
				if v2 := pred.Version(); v1 == v2 {
					if want, ok := expected.Load(v1); ok && got != want.(float64) {
						t.Errorf("torn read at version %d: %v, snapshot published %v", v1, got, want)
						return
					}
				}
				if out := pred.EstimateBatch([]Query{q}); len(out) != 1 || !(out[0] > 0) {
					t.Errorf("EstimateBatch = %v", out)
					return
				}
			}
		}()
	}

	const rounds = 3
	for round := 0; round < rounds; round++ {
		var obs []Observation
		for i := 0; i < 10; i++ {
			obs = append(obs, Observation{
				Workload: (round + i) % ds.NumWorkloads(),
				Platform: i % ds.NumPlatforms(),
				Seconds:  pred.Estimate((round+i)%ds.NumWorkloads(), i%ds.NumPlatforms(), nil) * 1.5,
			})
		}
		if err := pred.Observe(obs); err != nil {
			t.Error(err)
			break
		}
		expected.Store(pred.Version(), probe())
	}
	close(stop)
	wg.Wait()

	if v := pred.Version(); v != rounds {
		t.Fatalf("version %d after %d observes", v, rounds)
	}
	if info := pred.Info(); info.Observations != len(ds.Obs)+rounds*10 {
		t.Fatalf("info reports %d observations, want %d", info.Observations, len(ds.Obs)+rounds*10)
	}
}

// Concurrent Observe calls must serialize: every call lands in exactly one
// snapshot increment and all observations are retained.
func TestConcurrentObserveSerializes(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(22, false))
	if err != nil {
		t.Fatal(err)
	}
	base := pred.Info().Observations
	var wg sync.WaitGroup
	const writers = 3
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			obs := []Observation{{Workload: i, Platform: 0, Seconds: 1 + float64(i)}}
			if err := pred.Observe(obs); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if v := pred.Version(); v != writers {
		t.Fatalf("version %d after %d concurrent observes", v, writers)
	}
	if got := pred.Info().Observations; got != base+writers {
		t.Fatalf("%d observations, want %d", got, base+writers)
	}
}

// TestTrainParallelFitsMatchSequential pins Train's concurrent fits to a
// sequential reference: the mean model, then the quantile model, each
// through core with one worker. Both saved streams must be byte-identical.
// The towers are wide enough for the row-parallel matrix products to fan
// out.
func TestTrainParallelFitsMatchSequential(t *testing.T) {
	ds := smallDataset()
	opts := smallOptions(7, true)
	opts.Model.Hidden = 128
	opts.Model.Steps = 24
	opts.Model.EvalEvery = 12
	pred, err := Train(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var gotMean, gotQuant bytes.Buffer
	if err := pred.SaveModel(&gotMean, &gotQuant); err != nil {
		t.Fatal(err)
	}

	split, mean, quant, err := newFit(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*core.Model{mean, quant} {
		// Workers is saved with the config: restore it after the fit so
		// only the weights can differ.
		workers := m.Cfg.Workers
		m.Cfg.Workers = 1
		if _, err := m.Train(split); err != nil {
			t.Fatal(err)
		}
		m.Cfg.Workers = workers
	}
	ref := newPredictor(newSnapshot(ds, mean, quant, split, 0, mean.Cfg.FastScoring))
	var wantMean, wantQuant bytes.Buffer
	if err := ref.SaveModel(&wantMean, &wantQuant); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMean.Bytes(), wantMean.Bytes()) {
		t.Error("mean model stream differs from the sequential fit")
	}
	if !bytes.Equal(gotQuant.Bytes(), wantQuant.Bytes()) {
		t.Error("quantile model stream differs from the sequential fit")
	}
}
