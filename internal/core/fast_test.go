package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// relErr returns |got−want|/max(|want|, tiny), tolerating want == 0.
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if d == 0 {
		return 0
	}
	den := math.Abs(want)
	if den < math.SmallestNonzeroFloat64 {
		return math.Inf(1)
	}
	return d / den
}

// ExpFast must stay within its documented relative-error bound against
// math.Exp over a dense sweep of the reduced range, and behave exactly
// like math.Exp on every special value and outside the guarded range.
func TestExpFastErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var worst float64
	check := func(x float64) {
		re := relErr(ExpFast(x), math.Exp(x))
		if re > worst {
			worst = re
		}
		if re > FastExpMaxRelErr {
			t.Fatalf("ExpFast(%v) rel err %.3e exceeds bound %.1e", x, re, FastExpMaxRelErr)
		}
	}
	// Dense grid over the guarded range plus random fill, with extra
	// density around the scheduler's working range of log-runtimes.
	for x := -708.0; x <= 708.0; x += 0.01 {
		check(x)
	}
	for i := 0; i < 200000; i++ {
		check(rng.Float64()*1416 - 708)
		check(rng.NormFloat64() * 8) // typical log-seconds magnitudes
	}
	t.Logf("worst relative error %.3e (bound %.1e)", worst, FastExpMaxRelErr)

	// Exactness at zero and identity with math.Exp off the fast path.
	if ExpFast(0) != 1 {
		t.Fatalf("ExpFast(0) = %v, want exactly 1", ExpFast(0))
	}
	for _, x := range []float64{
		math.Inf(1), math.Inf(-1), math.NaN(),
		709, 710, 1000, -709, -745, -1000, // overflow and subnormal tails
		math.MaxFloat64, -math.MaxFloat64,
	} {
		got, want := ExpFast(x), math.Exp(x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Fatalf("ExpFast(NaN) = %v, want NaN", got)
			}
			continue
		}
		if got != want {
			t.Fatalf("ExpFast(%v) = %v, want math.Exp's %v", x, got, want)
		}
	}
}

// fastTestModels trains a rank-32 (mean, quantile) pair — the paired
// configuration the fast kernel targets — at test-sized step counts.
func fastTestModels(t *testing.T, mutate func(*Config)) (*Model, *Model, *dataset.Dataset) {
	t.Helper()
	ds := testData(t)
	cfg := DefaultConfig(5)
	cfg.Hidden = 32
	cfg.Steps = 50
	cfg.BatchPerDegree = 128
	cfg.EvalEvery = 25
	if mutate != nil {
		mutate(&cfg)
	}
	split := dataset.NewSplit(rand.New(rand.NewSource(6)), len(ds.Obs), 0.7)
	mean, err := NewModel(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mean.Train(split); err != nil {
		t.Fatal(err)
	}
	qcfg := cfg
	qcfg.Quantiles = []float64{0.5, 0.9}
	qcfg.Seed = cfg.Seed + 1
	quant, err := NewModel(qcfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quant.Train(split); err != nil {
		t.Fatal(err)
	}
	return mean, quant, ds
}

// fastTestQueries builds a platform-major scan with mixed interferer
// degrees — the scheduler's wave shape, including empty interferer sets
// and span boundaries.
func fastTestQueries(ds *dataset.Dataset) []Query {
	var qs []Query
	for p := 0; p < ds.NumPlatforms(); p++ {
		var ks []int
		switch p % 3 {
		case 1:
			ks = []int{p % ds.NumWorkloads()}
		case 2:
			ks = []int{p % ds.NumWorkloads(), (p + 3) % ds.NumWorkloads()}
		}
		for w := 0; w < ds.NumWorkloads(); w++ {
			qs = append(qs, Query{Workload: w, Platform: p, Interferers: ks})
		}
	}
	return qs
}

func testBoundOffset(degree int) float64 {
	if degree >= 2 {
		return math.Inf(1) // exercise the infeasible (+Inf bound) path
	}
	return 0.05 * float64(degree+1)
}

// The fast kernel must agree with the exact kernel within the documented
// relative-error bound on every query, including +Inf conformal offsets.
func TestFastFusedMatchesExactWithinBound(t *testing.T) {
	mean, quant, ds := fastTestModels(t, nil)
	qs := fastTestQueries(ds)
	n := len(qs)
	em, eb := make([]float64, n), make([]float64, n)
	fm, fb := make([]float64, n), make([]float64, n)
	PredictFusedBatch(mean, quant, qs, 1, testBoundOffset, em, eb)
	PredictFusedBatchFast(mean, quant, qs, 1, testBoundOffset, fm, fb)
	var worstM, worstB float64
	for i := range qs {
		if math.IsInf(eb[i], 1) {
			if !math.IsInf(fb[i], 1) {
				t.Fatalf("query %d: exact bound +Inf but fast bound %v", i, fb[i])
			}
		} else if re := relErr(fb[i], eb[i]); re > FastScoreMaxRelErr {
			t.Fatalf("query %d: bound rel err %.3e exceeds %.1e", i, re, FastScoreMaxRelErr)
		} else if re > worstB {
			worstB = re
		}
		if re := relErr(fm[i], em[i]); re > FastScoreMaxRelErr {
			t.Fatalf("query %d: mean rel err %.3e exceeds %.1e", i, re, FastScoreMaxRelErr)
		} else if re > worstM {
			worstM = re
		}
	}
	t.Logf("worst relative error: mean %.3e, bound %.3e (bound %.1e)", worstM, worstB, FastScoreMaxRelErr)
}

// Non-paired configurations (here: rank 16) must fall through to the
// exact kernel bitwise.
func TestFastFusedFallbackNonPaired(t *testing.T) {
	mean, quant, ds := fastTestModels(t, func(c *Config) { c.EmbeddingDim = 16 })
	qs := fastTestQueries(ds)
	n := len(qs)
	em, eb := make([]float64, n), make([]float64, n)
	fm, fb := make([]float64, n), make([]float64, n)
	PredictFusedBatch(mean, quant, qs, 0, testBoundOffset, em, eb)
	PredictFusedBatchFast(mean, quant, qs, 0, testBoundOffset, fm, fb)
	for i := range qs {
		if em[i] != fm[i] || eb[i] != fb[i] {
			t.Fatalf("query %d: non-paired fast path not bitwise exact: mean %v vs %v, bound %v vs %v",
				i, em[i], fm[i], eb[i], fb[i])
		}
	}
}

// The pure-Go fallback kernels must satisfy the same bound as the vector
// kernels: force the scalar path and re-run the fused comparison. On
// machines without AVX2 this duplicates the main test, which is fine.
func TestFastFusedScalarFallbackWithinBound(t *testing.T) {
	saved := useFastVec
	useFastVec = false
	defer func() { useFastVec = saved }()
	mean, quant, ds := fastTestModels(t, nil)
	qs := fastTestQueries(ds)
	n := len(qs)
	em, eb := make([]float64, n), make([]float64, n)
	fm, fb := make([]float64, n), make([]float64, n)
	PredictFusedBatch(mean, quant, qs, 1, testBoundOffset, em, eb)
	PredictFusedBatchFast(mean, quant, qs, 1, testBoundOffset, fm, fb)
	for i := range qs {
		if math.IsInf(eb[i], 1) {
			if !math.IsInf(fb[i], 1) {
				t.Fatalf("query %d: exact bound +Inf but fast bound %v", i, fb[i])
			}
		} else if re := relErr(fb[i], eb[i]); re > FastScoreMaxRelErr {
			t.Fatalf("query %d: scalar bound rel err %.3e exceeds %.1e", i, re, FastScoreMaxRelErr)
		}
		if re := relErr(fm[i], em[i]); re > FastScoreMaxRelErr {
			t.Fatalf("query %d: scalar mean rel err %.3e exceeds %.1e", i, re, FastScoreMaxRelErr)
		}
	}
}

// expSpan must stay within the exp bound on every lane arrangement the
// span loop produces: vector-width groups, ragged tails, values outside
// the guard (+Inf offsets, NaN) at any position, and the scalar fallback.
func TestExpSpanMatchesExpWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(src []float64) {
		t.Helper()
		got := append([]float64(nil), src...)
		expSpan(got)
		for i, x := range src {
			want := math.Exp(x)
			if math.IsNaN(want) {
				if !math.IsNaN(got[i]) {
					t.Fatalf("lane %d: exp(NaN) = %v, want NaN", i, got[i])
				}
				continue
			}
			if re := relErr(got[i], want); re > FastExpMaxRelErr {
				t.Fatalf("lane %d: expSpan(%v) = %v rel err %.3e exceeds %.1e", i, x, got[i], want, FastExpMaxRelErr)
			}
		}
	}
	for n := 0; n <= 9; n++ { // widths around the vector boundary
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 5
		}
		check(xs)
	}
	// Unguarded lanes at every position of a two-group span.
	for pos := 0; pos < 8; pos++ {
		for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 709, -745} {
			xs := make([]float64, 8)
			for i := range xs {
				xs[i] = rng.NormFloat64() * 3
			}
			xs[pos] = bad
			check(xs)
		}
	}
	// Whole-span infeasibility: all +Inf, the conformal-offset case.
	inf := make([]float64, 12)
	for i := range inf {
		inf[i] = math.Inf(1)
	}
	check(inf)
	if !useFastVec {
		t.Log("vector kernels unavailable; exercised scalar path only")
	}
}
