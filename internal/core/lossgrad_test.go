package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/dataset"
	"repro/internal/tensor"
)

// sameBits reports the first index where a and b differ in any bit, or -1.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// lossGradCase builds random embedding tables and a batch in which
// workloads repeat as targets and interferers (sample 0 interferes with
// itself) and platforms repeat. Workload 1's head windows and platform 2's
// vg windows are zero, so some sample gradients are exactly 0.
func lossGradCase(rng *rand.Rand, cfg Config, deg int) (wD, pD *tensor.Matrix, bt batch) {
	const nw, np, n = 5, 4, 11
	r, s := cfg.EmbeddingDim, cfg.InterferenceTypes
	wD = tensor.New(nw, r*cfg.NumHeads())
	pD = tensor.New(np, r*(1+2*s))
	for _, m := range []*tensor.Matrix{wD, pD} {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
	}
	clear(wD.Row(1))
	for t := 0; t < s; t++ {
		clear(pD.Row(2)[r*(1+s+t) : r*(2+s+t)])
	}
	bt.degree = deg
	bt.ks = make([][]int, deg)
	for b := 0; b < n; b++ {
		bt.wi = append(bt.wi, rng.Intn(nw))
		bt.pj = append(bt.pj, rng.Intn(np))
		bt.target = append(bt.target, 0.2+rng.Float64())
		for mi := range bt.ks {
			bt.ks[mi] = append(bt.ks[mi], rng.Intn(nw))
		}
	}
	if deg > 0 {
		bt.ks[0][0] = bt.wi[0]
	}
	return wD, pD, bt
}

// TestHeadLossGradMatchesGraph pins the fused loss kernel to the autodiff
// graph bit for bit: the loss, head h's window of the w gradient (the rest
// of the graph's w gradient must be exactly +0, which makes the narrow
// fold exact) and the whole p gradient. It covers every objective,
// interference mode, activation on and off, s = 0…2 and degrees 0…3, with
// zero task weight, exactly-fitted targets and ±Inf embedding entries.
// It then pins runStep — task fan-out with shared per-worker scratch and
// the head-window fold — to the graph's step on a real model.
func TestHeadLossGradMatchesGraph(t *testing.T) {
	objectives := []struct {
		name string
		set  func(*Config)
	}{
		{"log-residual", func(c *Config) { c.Objective = ObjLogResidual }},
		{"log", func(c *Config) { c.Objective = ObjLog }},
		{"proportional", func(c *Config) { c.Objective = ObjProportional }},
		{"pinball", func(c *Config) { c.Quantiles = []float64{0.3, 0.9} }},
	}
	modes := []InterferenceMode{InterferenceAware, InterferenceIgnore, InterferenceDiscard}
	variants := []string{"plain", "zero-weight", "fitted-targets", "inf"}
	rng := rand.New(rand.NewSource(31))
	sc := new(lossScratch)
	cases := 0
	for _, obj := range objectives {
		for _, mode := range modes {
			for _, activation := range []bool{true, false} {
				for s := 0; s <= 2; s++ {
					for deg := 0; deg <= 3; deg++ {
						for _, variant := range variants {
							cfg := DefaultConfig(1)
							cfg.EmbeddingDim = 3
							cfg.InterferenceTypes = s
							cfg.Interference = mode
							cfg.UseActivation = activation
							obj.set(&cfg)
							m := &Model{Cfg: cfg}
							wD, pD, bt := lossGradCase(rng, cfg, deg)
							weight := 0.37
							switch variant {
							case "zero-weight":
								weight = 0
							case "inf":
								wD.Row(4)[0] = math.Inf(-1)
								pD.Row(3)[pD.Cols-1] = math.Inf(1)
							}
							for h := 0; h < cfg.NumHeads(); h++ {
								if variant == "fitted-targets" {
									pred := m.predictBatch(autodiff.NewConst(wD), autodiff.NewConst(pD), bt, h)
									for b := 0; b < len(bt.target); b += 2 {
										bt.target[b] = pred.Data.Data[b]
									}
								}
								name := fmt.Sprintf("%s/%v/act=%v/s=%d/deg=%d/%s/h=%d",
									obj.name, mode, activation, s, deg, variant, h)
								checkHeadLossGrad(t, name, m, wD, pD, bt, h, weight, sc)
								cases++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d kernel cases", cases)

	ds := testData(t)
	for _, quantiles := range [][]float64{nil, {0.5, 0.9}} {
		for _, workers := range []int{1, 3} {
			cfg := smallConfig(5)
			cfg.Quantiles = quantiles
			cfg.Workers = workers
			checkRunStep(t, fmt.Sprintf("step/quantiles=%v/workers=%d", quantiles, workers), ds, cfg)
		}
	}
}

func checkHeadLossGrad(t *testing.T, name string, m *Model, wD, pD *tensor.Matrix, bt batch, h int, weight float64, sc *lossScratch) {
	t.Helper()
	r := m.Cfg.EmbeddingDim
	wL, pL := autodiff.NewParam(wD), autodiff.NewParam(pD)
	want := m.headLoss(wL, pL, bt, h)
	want.Grad.Data[0] = weight
	want.BackwardSeeded()

	gw := tensor.New(wD.Rows, r)
	gp := tensor.New(pD.Rows, pD.Cols)
	got := m.headLossGrad(wD, pD, gw, gp, bt, h, weight, sc)
	if math.Float64bits(got) != math.Float64bits(want.Scalar()) {
		t.Fatalf("%s: loss %v, graph %v", name, got, want.Scalar())
	}
	for k := 0; k < wD.Rows; k++ {
		row := wL.Grad.Row(k)
		if j := sameBits(gw.Row(k), row[h*r:(h+1)*r]); j >= 0 {
			t.Fatalf("%s: w grad [%d][%d] = %v, graph %v", name, k, h*r+j, gw.Row(k)[j], row[h*r+j])
		}
		for j, v := range row {
			if (j < h*r || j >= (h+1)*r) && math.Float64bits(v) != 0 {
				t.Fatalf("%s: graph w grad [%d][%d] = %v outside head %d's window", name, k, j, v, h)
			}
		}
	}
	if i := sameBits(gp.Data, pL.Grad.Data); i >= 0 {
		t.Fatalf("%s: p grad [%d][%d] = %v, graph %v", name, i/pD.Cols, i%pD.Cols, gp.Data[i], pL.Grad.Data[i])
	}
}

// checkRunStep runs one training step of a fresh model both ways and
// compares the returned loss and every parameter gradient bit for bit.
func checkRunStep(t *testing.T, name string, ds *dataset.Dataset, cfg Config) {
	t.Helper()
	m, err := NewModel(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	m.Baseline = FitLinearBaseline(ds, allIndices(len(ds.Obs)), 0)
	idx := allIndices(240)
	pools, degrees := dataset.ByDegree(ds, idx)
	var batches []batch
	var weights []float64
	for _, deg := range degrees {
		batches = append(batches, m.makeBatch(pools[deg], false))
		weights = append(weights, float64(len(pools[deg]))/float64(len(idx)))
	}

	wantLoss := m.graphStep(batches, weights)
	want := make([]*tensor.Matrix, len(m.params))
	for i, p := range m.params {
		want[i] = p.Grad.Clone()
		p.ZeroGrad()
	}
	gotLoss := m.runStep(batches, weights)
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("%s: step loss %v, graph %v", name, gotLoss, wantLoss)
	}
	for i, p := range m.params {
		if j := sameBits(p.Grad.Data, want[i].Data); j >= 0 {
			t.Fatalf("%s: param %d grad [%d] = %v, graph %v", name, i, j, p.Grad.Data[j], want[i].Data[j])
		}
	}
}

func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
