package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/wasmcluster"
)

// testData generates a small dataset once for the package tests.
func testData(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds := wasmcluster.New(wasmcluster.Config{
		Seed: 42, NumWorkloads: 30, MaxDevices: 5, SetsPerDegree: 12,
	}).Generate()
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds
}

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Hidden = 32
	cfg.EmbeddingDim = 16
	cfg.Steps = 400
	cfg.BatchPerDegree = 128
	cfg.EvalEvery = 100
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(1)
	bad.EmbeddingDim = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero embedding dim")
	}
	bad = DefaultConfig(1)
	bad.Quantiles = []float64{1.5}
	if bad.Validate() == nil {
		t.Fatal("accepted quantile > 1")
	}
	bad = DefaultConfig(1)
	bad.Objective = ObjProportional
	bad.Quantiles = []float64{0.9}
	if bad.Validate() == nil {
		t.Fatal("accepted proportional+quantiles")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		set  func(*Config)
	}{
		{"NaN quantile", func(c *Config) { c.Quantiles = []float64{0.5, nan} }},
		{"NaN LR", func(c *Config) { c.LR = nan }},
		{"infinite LR", func(c *Config) { c.LR = inf }},
		{"NaN Beta", func(c *Config) { c.Beta = nan }},
		{"infinite Beta", func(c *Config) { c.Beta = -inf }},
		{"NaN ActivationSlope", func(c *Config) { c.ActivationSlope = nan }},
		{"infinite ActivationSlope", func(c *Config) { c.ActivationSlope = inf }},
	} {
		bad = DefaultConfig(1)
		c.set(&bad)
		if bad.Validate() == nil {
			t.Errorf("accepted %s", c.name)
		}
	}
}

func TestObjectiveAndModeStrings(t *testing.T) {
	if ObjLogResidual.String() != "log-residual" || ObjLog.String() != "log" ||
		ObjProportional.String() != "proportional" || Objective(9).String() != "unknown" {
		t.Fatal("objective names wrong")
	}
	if InterferenceAware.String() != "aware" || InterferenceDiscard.String() != "discard" ||
		InterferenceIgnore.String() != "ignore" || InterferenceMode(9).String() != "unknown" {
		t.Fatal("mode names wrong")
	}
}

func TestLinearBaselineReducesLoss(t *testing.T) {
	ds := testData(t)
	all := seq(len(ds.Obs))
	var iso []int
	for _, i := range all {
		if ds.Obs[i].Degree() == 0 {
			iso = append(iso, i)
		}
	}
	zero := &LinearBaseline{W: make([]float64, ds.NumWorkloads()), P: make([]float64, ds.NumPlatforms())}
	fit := FitLinearBaseline(ds, all, 0)
	if fit.Loss(ds, iso) >= zero.Loss(ds, iso)*0.2 {
		t.Fatalf("baseline loss %.3f vs zero %.3f: insufficient reduction",
			fit.Loss(ds, iso), zero.Loss(ds, iso))
	}
}

func TestLinearBaselineMonotoneConvergence(t *testing.T) {
	ds := testData(t)
	all := seq(len(ds.Obs))
	var iso []int
	for _, i := range all {
		if ds.Obs[i].Degree() == 0 {
			iso = append(iso, i)
		}
	}
	prev := math.Inf(1)
	for _, iters := range []int{1, 2, 5, 20} {
		l := FitLinearBaseline(ds, all, iters).Loss(ds, iso)
		if l > prev+1e-9 {
			t.Fatalf("loss increased with more iterations: %v -> %v", prev, l)
		}
		prev = l
	}
}

func TestScaleInvarianceOfResidual(t *testing.T) {
	// Paper Eq. 3: duplicating a job γ times leaves the residual unchanged.
	for _, gamma := range []float64{2, 10, 0.5} {
		orig, scaled := scaleInvariantResidual(1.7, 0.4, gamma)
		if math.Abs(orig-scaled) > 1e-12 {
			t.Fatalf("residual not scale invariant: %v vs %v", orig, scaled)
		}
	}
}

func TestBaselineHandlesInterferenceOnlyEntities(t *testing.T) {
	ds := testData(t)
	// Keep only observations where workload 0 appears with interference.
	var idx []int
	for i, o := range ds.Obs {
		if o.Workload == 0 && o.Degree() == 0 {
			continue
		}
		idx = append(idx, i)
	}
	b := FitLinearBaseline(ds, idx, 0)
	if math.IsNaN(b.W[0]) || math.IsInf(b.W[0], 0) {
		t.Fatal("interference-only workload got invalid baseline")
	}
}

func TestNewModelParamCount(t *testing.T) {
	ds := testData(t)
	cfg := smallConfig(1)
	m, err := NewModel(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	dw := ds.WorkloadFeatures.Cols + 1 // q=1
	dp := ds.PlatformFeatures.Cols + 1
	r, s, hdn := cfg.EmbeddingDim, cfg.InterferenceTypes, cfg.Hidden
	want := (dw*hdn + hdn) + (hdn*hdn + hdn) + (hdn*r + r) + // fw
		(dp*hdn + hdn) + (hdn*hdn + hdn) + (hdn*r*(1+2*s) + r*(1+2*s)) + // fp
		ds.NumWorkloads() + ds.NumPlatforms() // φ
	if got := m.NumParams(); got != want {
		t.Fatalf("NumParams = %d want %d", got, want)
	}
}

func TestNewModelRejectsNoInputs(t *testing.T) {
	ds := testData(t)
	cfg := smallConfig(1)
	cfg.UseWorkloadFeatures = false
	cfg.UsePlatformFeatures = false
	cfg.LearnedFeatures = 0
	if _, err := NewModel(cfg, ds); err == nil {
		t.Fatal("accepted model with no inputs")
	}
}

func TestTrainImprovesOverBaseline(t *testing.T) {
	ds := testData(t)
	rng := rand.New(rand.NewSource(9))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.7)
	split.EnsureCoverage(ds)

	cfg := smallConfig(2)
	cfg.Steps = 800
	m, err := NewModel(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Train(split)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValHistory) == 0 || math.IsInf(res.BestValLoss, 1) {
		t.Fatal("no validation history")
	}

	// Compare squared log error on test vs. the baseline alone.
	var mseModel, mseBase float64
	n := 0
	for _, i := range split.Test {
		o := ds.Obs[i]
		lp := m.PredictLogSeconds(o.Workload, o.Platform, o.Interferers, 0)
		dm := lp - o.LogSeconds()
		db := m.Baseline.LogBaseline(o.Workload, o.Platform) - o.LogSeconds()
		mseModel += dm * dm
		mseBase += db * db
		n++
	}
	mseModel /= float64(n)
	mseBase /= float64(n)
	if mseModel >= mseBase {
		t.Fatalf("model mse %.4f not better than baseline %.4f", mseModel, mseBase)
	}
}

func TestPredictConsistencyBatchVsSingle(t *testing.T) {
	ds := testData(t)
	cfg := smallConfig(3)
	cfg.Steps = 50
	m, err := NewModel(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.7)
	if _, err := m.Train(split); err != nil {
		t.Fatal(err)
	}
	// The autodiff graph and the cached-embedding fast path must agree.
	w, p := m.embeddings()
	var idx []int
	for i, o := range ds.Obs {
		if o.Degree() == 2 {
			idx = append(idx, i)
		}
		if len(idx) == 16 {
			break
		}
	}
	bt := m.makeBatch(idx, false)
	graphPred := m.predictBatch(w, p, bt, 0)
	for b, oi := range idx {
		o := ds.Obs[oi]
		fast := m.PredictResidual(o.Workload, o.Platform, o.Interferers, 0)
		if math.Abs(fast-graphPred.Data.At(b, 0)) > 1e-10 {
			t.Fatalf("obs %d: fast %.8f vs graph %.8f", oi, fast, graphPred.Data.At(b, 0))
		}
	}
}

func TestInterferencePredictionChangesWithInterferers(t *testing.T) {
	ds := testData(t)
	cfg := smallConfig(5)
	cfg.Steps = 300
	m, _ := NewModel(cfg, ds)
	rng := rand.New(rand.NewSource(6))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.7)
	if _, err := m.Train(split); err != nil {
		t.Fatal(err)
	}
	iso := m.PredictLogSeconds(0, 0, nil, 0)
	with := m.PredictLogSeconds(0, 0, []int{1, 2}, 0)
	if iso == with {
		t.Fatal("interference term has no effect")
	}
}

func TestDiscardModeIgnoresInterferers(t *testing.T) {
	ds := testData(t)
	cfg := smallConfig(7)
	cfg.Steps = 60
	cfg.Interference = InterferenceDiscard
	m, _ := NewModel(cfg, ds)
	rng := rand.New(rand.NewSource(8))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.7)
	if _, err := m.Train(split); err != nil {
		t.Fatal(err)
	}
	iso := m.PredictLogSeconds(0, 0, nil, 0)
	with := m.PredictLogSeconds(0, 0, []int{1, 2}, 0)
	if iso != with {
		t.Fatal("discard-mode prediction depends on interferers")
	}
}

func TestQuantileHeadsOrdered(t *testing.T) {
	// Higher target quantiles must produce (on average) higher predictions.
	ds := testData(t)
	cfg := smallConfig(10)
	cfg.Quantiles = []float64{0.5, 0.9}
	cfg.Steps = 800
	m, _ := NewModel(cfg, ds)
	rng := rand.New(rand.NewSource(11))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.7)
	if _, err := m.Train(split); err != nil {
		t.Fatal(err)
	}
	var lo, hi float64
	for _, i := range split.Test[:min(300, len(split.Test))] {
		o := ds.Obs[i]
		lo += m.PredictLogSeconds(o.Workload, o.Platform, o.Interferers, 0)
		hi += m.PredictLogSeconds(o.Workload, o.Platform, o.Interferers, 1)
	}
	if hi <= lo {
		t.Fatalf("q=0.9 head mean %.4f not above q=0.5 head %.4f", hi, lo)
	}
	if h, err := m.HeadForQuantile(0.9); err != nil || h != 1 {
		t.Fatalf("HeadForQuantile: %v %v", h, err)
	}
	if _, err := m.HeadForQuantile(0.123); err == nil {
		t.Fatal("HeadForQuantile accepted unknown quantile")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := testData(t)
	cfg := smallConfig(12)
	cfg.Steps = 60
	m, _ := NewModel(cfg, ds)
	rng := rand.New(rand.NewSource(13))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.7)
	if _, err := m.Train(split); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf, ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []struct{ w, p int }{{0, 0}, {3, 2}, {5, 1}} {
		a := m.PredictLogSeconds(o.w, o.p, []int{1}, 0)
		b := m2.PredictLogSeconds(o.w, o.p, []int{1}, 0)
		if math.Abs(a-b) > 1e-12 {
			t.Fatalf("prediction changed after reload: %v vs %v", a, b)
		}
	}
}

func TestEmbeddingAccessors(t *testing.T) {
	ds := testData(t)
	cfg := smallConfig(14)
	cfg.Steps = 30
	m, _ := NewModel(cfg, ds)
	rng := rand.New(rand.NewSource(15))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.7)
	if _, err := m.Train(split); err != nil {
		t.Fatal(err)
	}
	we := m.WorkloadEmbeddings(0)
	if we.Rows != ds.NumWorkloads() || we.Cols != cfg.EmbeddingDim {
		t.Fatalf("workload embeddings %dx%d", we.Rows, we.Cols)
	}
	pe := m.PlatformEmbeddings()
	if pe.Rows != ds.NumPlatforms() || pe.Cols != cfg.EmbeddingDim {
		t.Fatalf("platform embeddings %dx%d", pe.Rows, pe.Cols)
	}
	for j := 0; j < ds.NumPlatforms(); j++ {
		if n := m.InterferenceNorm(j); n < 0 || math.IsNaN(n) {
			t.Fatalf("InterferenceNorm(%d) = %v", j, n)
		}
	}
}

func TestInterferenceNormMatchesDense(t *testing.T) {
	// Power iteration must match a brute-force SVD-free check: σ₁² is the
	// largest eigenvalue of FᵀF, which for small r we can bound via the
	// Frobenius norm: σ₁ ≤ ‖F‖_F ≤ √s σ₁... here just verify rank-1 case
	// where ‖F‖₂ = ‖vs‖‖vg‖ exactly.
	ds := testData(t)
	cfg := smallConfig(16)
	cfg.InterferenceTypes = 1
	cfg.Steps = 30
	m, _ := NewModel(cfg, ds)
	rng := rand.New(rand.NewSource(17))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.7)
	if _, err := m.Train(split); err != nil {
		t.Fatal(err)
	}
	r := cfg.EmbeddingDim
	prow := m.pEmb.Row(0)
	vs := prow[r : 2*r]
	vg := prow[2*r : 3*r]
	want := math.Sqrt(dot(vs, vs)) * math.Sqrt(dot(vg, vg))
	if got := m.InterferenceNorm(0); math.Abs(got-want) > 1e-8*math.Max(1, want) {
		t.Fatalf("rank-1 spectral norm %v want %v", got, want)
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
