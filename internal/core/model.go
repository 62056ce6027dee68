package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/autodiff"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Model is the trained (or trainable) Pitot predictor.
//
// Architecture (paper Fig. 2): two embedding towers fw, fp map side
// information concatenated with learned features φ to embeddings. The
// workload tower emits one rank-r embedding per head (one head per target
// quantile); the platform tower emits the platform embedding p plus the
// interference susceptibility/magnitude directions v_s, v_g for each of the
// s interference types.
type Model struct {
	Cfg      Config
	Baseline *LinearBaseline

	data *dataset.Dataset

	fw, fp     *nn.MLP
	phiW, phiP *nn.Embedding // extra learned features (q per entity)

	params []*autodiff.Value

	// Standardized (z-scored) copies of the side-information matrices;
	// raw opcode log-counts span tens of log units and would saturate the
	// towers otherwise.
	xw, xp *tensor.Matrix

	// Inference-time embedding caches, refreshed by SyncEmbeddings.
	wEmb *tensor.Matrix // Nw x r*H
	pEmb *tensor.Matrix // Np x r*(1+2s)

	// Cached constant tower inputs, valid when a tower has no learned
	// features (the input then never changes across steps).
	wInConst, pInConst *autodiff.Value
}

// standardize z-scores each column; constant columns become zero. The
// variance uses the two-pass formula Σ(x−mean)² rather than E[x²]−E[x]²,
// which cancels catastrophically for large-mean columns (such as raw
// opcode log-counts).
func standardize(m *tensor.Matrix) *tensor.Matrix {
	out := m.Clone()
	n := float64(m.Rows)
	for j := 0; j < m.Cols; j++ {
		var sum float64
		for i := 0; i < m.Rows; i++ {
			sum += m.At(i, j)
		}
		mean := sum / n
		var sumSq float64
		for i := 0; i < m.Rows; i++ {
			d := m.At(i, j) - mean
			sumSq += d * d
		}
		variance := sumSq / n
		if variance < 1e-12 {
			for i := 0; i < m.Rows; i++ {
				out.Set(i, j, 0)
			}
			continue
		}
		inv := 1 / math.Sqrt(variance)
		for i := 0; i < m.Rows; i++ {
			out.Set(i, j, (m.At(i, j)-mean)*inv)
		}
	}
	return out
}

// NewModel builds an untrained model for the dataset.
func NewModel(cfg Config, d *dataset.Dataset) (*Model, error) {
	fwSizes, fpSizes, err := towerSizes(cfg, d)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, data: d}
	if cfg.UseWorkloadFeatures {
		m.xw = standardize(d.WorkloadFeatures)
	}
	if cfg.UsePlatformFeatures {
		m.xp = standardize(d.PlatformFeatures)
	}
	m.fw = nn.NewMLP(rng, nn.ActGELU, fwSizes...)
	m.fp = nn.NewMLP(rng, nn.ActGELU, fpSizes...)
	m.params = append(m.params, m.fw.Params()...)
	m.params = append(m.params, m.fp.Params()...)
	if cfg.LearnedFeatures > 0 {
		m.phiW = nn.NewEmbedding(rng, d.NumWorkloads(), cfg.LearnedFeatures, 0.1)
		m.phiP = nn.NewEmbedding(rng, d.NumPlatforms(), cfg.LearnedFeatures, 0.1)
		m.params = append(m.params, m.phiW.Params()...)
		m.params = append(m.params, m.phiP.Params()...)
	}
	if m.phiW == nil && m.xw != nil {
		m.wInConst = autodiff.NewConst(m.xw)
	}
	if m.phiP == nil && m.xp != nil {
		m.pInConst = autodiff.NewConst(m.xp)
	}
	return m, nil
}

// towerSizes validates cfg against the dataset and returns the layer
// widths of the workload tower (ending in r per head) and the platform
// tower (ending in r·(1+2s)). A config can arrive from a persisted model
// and the dataset from the wire (LoadPredictor), so a missing feature
// matrix, or a width or parameter count that overflows an int, is an
// error rather than a panic later.
func towerSizes(cfg Config, d *dataset.Dataset) (fw, fp []int, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if !cfg.UseWorkloadFeatures && !cfg.UsePlatformFeatures && cfg.LearnedFeatures == 0 {
		return nil, nil, fmt.Errorf("core: model needs features or learned features")
	}
	dw, dp := 0, 0
	if cfg.UseWorkloadFeatures {
		if d.WorkloadFeatures == nil {
			return nil, nil, fmt.Errorf("core: config requires workload features but dataset has none")
		}
		dw = d.WorkloadFeatures.Cols
	}
	if cfg.UsePlatformFeatures {
		if d.PlatformFeatures == nil {
			return nil, nil, fmt.Errorf("core: config requires platform features but dataset has none")
		}
		dp = d.PlatformFeatures.Cols
	}
	r, s, q, hid := cfg.EmbeddingDim, cfg.InterferenceTypes, cfg.LearnedFeatures, cfg.Hidden
	outW, okW := mulInt(r, cfg.NumHeads())
	twoS, okS := mulInt(2, s)
	outP, okP := mulInt(r, twoS+1) // 2s is even, so 2s+1 cannot overflow
	ok := okW && okS && okP && dw <= math.MaxInt-q && dp <= math.MaxInt-q
	fw = []int{dw + q, hid, hid, outW}
	fp = []int{dp + q, hid, hid, outP}
	for _, sizes := range [][]int{fw, fp} {
		for i := 0; ok && i+1 < len(sizes); i++ {
			_, ok = mulInt(sizes[i], sizes[i+1])
		}
	}
	if q > 0 && ok {
		_, okW = mulInt(d.NumWorkloads(), q)
		_, okP = mulInt(d.NumPlatforms(), q)
		ok = okW && okP
	}
	if !ok {
		return nil, nil, fmt.Errorf("core: model dimensions overflow (rank %d, %d interference types, hidden %d, %d learned features)",
			r, s, hid, q)
	}
	return fw, fp, nil
}

// mulInt returns a·b for non-negative a and b, and false if it overflows.
func mulInt(a, b int) (int, bool) {
	if a != 0 && b > math.MaxInt/a {
		return 0, false
	}
	return a * b, true
}

// workers returns the goroutine fan-out for parallel loss tasks and batch
// inference.
func (m *Model) workers() int {
	if m.Cfg.Workers > 0 {
		return m.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// NumParams returns the number of scalar trainable parameters.
func (m *Model) NumParams() int { return nn.NumParams(m.params) }

// Params exposes the trainable parameters (for the optimizer and tests).
func (m *Model) Params() []*autodiff.Value { return m.params }

// Dataset returns the dataset the model was built for.
func (m *Model) Dataset() *dataset.Dataset { return m.data }

// towerInput assembles [features | φ] for one tower. Either part may be
// absent depending on the configuration. With learned features the concat
// is a single fused op (the old per-step identity gather over the φ table
// is elided); without them the cached constant is reused across steps.
func towerInput(feats *tensor.Matrix, phi *nn.Embedding, cached *autodiff.Value) *autodiff.Value {
	if phi == nil {
		return cached
	}
	if feats == nil {
		return phi.Table
	}
	return autodiff.ConcatConstCols(feats, phi.Table)
}

// embeddings runs both towers over every workload and platform. Computing
// all embeddings each step and gathering the needed rows matches the
// paper's implementation strategy (App. B.3) — the tables are small
// relative to the batch.
func (m *Model) embeddings() (w, p *autodiff.Value) {
	xw := towerInput(m.xw, m.phiW, m.wInConst)
	xp := towerInput(m.xp, m.phiP, m.pInConst)
	return m.fw.Forward(xw), m.fp.Forward(xp)
}

// embeddingsInfer computes both towers' outputs without building a tape:
// no Value graph, no gradient buffers. The returned matrices are
// pool-backed and owned by the caller (release with tensor.PutPooled).
func (m *Model) embeddingsInfer() (w, p *tensor.Matrix) {
	return m.towerInfer(m.fw, m.xw, m.phiW), m.towerInfer(m.fp, m.xp, m.phiP)
}

func (m *Model) towerInfer(f *nn.MLP, feats *tensor.Matrix, phi *nn.Embedding) *tensor.Matrix {
	cat, x := m.towerInput2(feats, phi)
	if cat != nil {
		defer tensor.PutPooled(cat)
	}
	return f.Infer(x)
}

// towerInferInto is towerInfer writing into a caller-reused output buffer
// (see nn.MLP.InferInto). The [features | φ] concat scratch comes from the
// size-classed tensor pool, so consecutive tower syncs — including the
// mean and quantile models' towers inside one Observe, whose concat shapes
// match — recycle one backing buffer instead of allocating per tower.
func (m *Model) towerInferInto(dst *tensor.Matrix, f *nn.MLP, feats *tensor.Matrix, phi *nn.Embedding) *tensor.Matrix {
	cat, x := m.towerInput2(feats, phi)
	if cat != nil {
		defer tensor.PutPooled(cat)
	}
	return f.InferInto(dst, x)
}

// towerInput2 assembles the tape-free tower input [features | φ]; cat is
// non-nil (pool-backed, owned by the caller) only when a concat was needed.
func (m *Model) towerInput2(feats *tensor.Matrix, phi *nn.Embedding) (cat, x *tensor.Matrix) {
	x = feats
	if phi != nil {
		t := phi.Table.Data
		if feats == nil {
			x = t
		} else {
			cat = tensor.GetPooled(feats.Rows, feats.Cols+t.Cols)
			tensor.ConcatColsInto(cat, feats, t)
			x = cat
		}
	}
	return cat, x
}

// batch describes one fixed-degree minibatch: parallel index slices into
// the entity tables.
type batch struct {
	degree int
	wi, pj []int   // workload / platform per sample
	ks     [][]int // ks[m][b]: m-th interferer of sample b (len = degree)
	target []float64
}

// makeBatch converts observation indices (all of the same degree) into a
// batch with regression targets under the model's objective. When
// stripInterference is true (InterferenceIgnore), interferer indices are
// dropped so the model treats the samples as isolation runs.
func (m *Model) makeBatch(obsIdx []int, stripInterference bool) batch {
	var bt batch
	if len(obsIdx) == 0 {
		return bt
	}
	deg := m.data.Obs[obsIdx[0]].Degree()
	if stripInterference {
		deg = 0
	}
	bt.degree = deg
	bt.ks = make([][]int, deg)
	for mi := range bt.ks {
		bt.ks[mi] = make([]int, 0, len(obsIdx))
	}
	for _, oi := range obsIdx {
		o := m.data.Obs[oi]
		if !stripInterference && o.Degree() != bt.degree {
			panic("core: mixed degrees in batch")
		}
		bt.wi = append(bt.wi, o.Workload)
		bt.pj = append(bt.pj, o.Platform)
		for mi := 0; mi < deg; mi++ {
			bt.ks[mi] = append(bt.ks[mi], o.Interferers[mi])
		}
		bt.target = append(bt.target, residualTarget(m.Cfg.Objective, m.Baseline, o))
	}
	return bt
}

// predictResidualsInto fills dst with head h's residual predictions for
// the batch using plain embedding matrices — the forward half of
// headLossGrad without its gradients, used by validation and batch
// inference.
func (m *Model) predictResidualsInto(dst []float64, wE, pE *tensor.Matrix, bt batch, h int) {
	r, s := m.Cfg.EmbeddingDim, m.Cfg.InterferenceTypes
	lo, hi := h*r, (h+1)*r
	interference := bt.degree > 0 && m.Cfg.Interference == InterferenceAware && s > 0
	for b := range dst {
		wrow := wE.Row(bt.wi[b])[lo:hi]
		prow := pE.Row(bt.pj[b])
		pred := dot(wrow, prow[:r])
		if interference {
			for t := 0; t < s; t++ {
				vs := prow[r*(1+t) : r*(2+t)]
				vg := prow[r*(1+s+t) : r*(2+s+t)]
				var mag float64
				for mi := 0; mi < bt.degree; mi++ {
					mag += dot(wE.Row(bt.ks[mi][b])[lo:hi], vg)
				}
				if m.Cfg.UseActivation && mag < 0 {
					mag *= m.Cfg.ActivationSlope
				}
				pred += dot(wrow, vs) * mag
			}
		}
		dst[b] = pred
	}
}

// headLossGrad is one (batch, head) task of a training step: head h's loss
// on the batch (pinball at the head's quantile, or the configured squared
// loss) and its backward pass, fused into one tape-free kernel. It reads
// embedding rows in place and accumulates weight·∂loss into gw, the
// Nw x r gradient of w's head-h column window, and gp, the gradient of
// the whole platform table; both must arrive zeroed. It returns the
// unweighted loss.
//
// The model is paper Eq. 9,
//
//	ŷ = wᵢᵀpⱼ + Σ_t (wᵢᵀ v_s⁽ᵗ⁾) · α( Σ_k w_kᵀ v_g⁽ᵗ⁾ ),
//
// and every sum replays the reverse-topological order of its autodiff
// formulation (lossgraph_test.go), so the gradients are bit for bit the
// graph's (TestHeadLossGradMatchesGraph):
//
//   - pj, vs_t and vg_t own disjoint column windows of gp, each filled in
//     sample order. A sample's vg_t row sums g_term(t)·w_k over
//     interferer slots d−1…0, starting from +0.
//   - w's head window receives each interferer slot's rows for
//     slot d−1…0, then the target rows, each in sample order. A sample's
//     interferer row sums g_term(t)·vg_t over t = s−1…0 from +0; it is
//     the same for every slot, so it is computed once. Its target row
//     sums g_sus(t)·vs_t over t = s−1…0 from +0, then adds g·pj.
//   - A product whose upstream gradient is exactly 0 is skipped, as the
//     graph's RowDot does, because 0·Inf is NaN.
//
// Scalar gradients accumulate from +0 like the graph's zeroed buffers,
// and a product the graph stores before adding is rounded here too
// (float64 conversion), so no multiply-add can fuse differently.
func (m *Model) headLossGrad(wD, pD, gw, gp *tensor.Matrix, bt batch, h int, weight float64, sc *lossScratch) float64 {
	n := len(bt.target)
	r, s := m.Cfg.EmbeddingDim, m.Cfg.InterferenceTypes
	lo, hi := h*r, (h+1)*r
	deg, nt := 0, 0 // interferer slots and interference types in the model
	if bt.degree > 0 && m.Cfg.Interference == InterferenceAware && s > 0 {
		deg, nt = bt.degree, s
	}
	sc.reserve(n, r, nt)
	nf := float64(n)
	quantile := len(m.Cfg.Quantiles) > 0
	proportional := !quantile && m.Cfg.Objective == ObjProportional
	var xi, c float64
	if quantile {
		xi, c = m.Cfg.Quantiles[h], weight/nf
	} else {
		c = 2 * weight / nf
	}
	activation, slope := m.Cfg.UseActivation, m.Cfg.ActivationSlope

	var loss float64
	for b := 0; b < n; b++ {
		wi := wD.Row(bt.wi[b])[lo:hi]
		prow := pD.Row(bt.pj[b])
		pred := dot(wi, prow[:r])
		for t := 0; t < nt; t++ {
			vg := prow[r*(1+s+t) : r*(2+s+t)]
			mag := dot(wD.Row(bt.ks[0][b])[lo:hi], vg)
			for mi := 1; mi < deg; mi++ {
				mag += dot(wD.Row(bt.ks[mi][b])[lo:hi], vg)
			}
			act := mag
			if activation && !(mag > 0) {
				act = slope * mag
			}
			sus := dot(wi, prow[r*(1+t):r*(2+t)])
			pred += float64(sus * act)
			sc.sus[t], sc.act[t], sc.mag[t] = sus, act, mag
		}

		target := bt.target[b]
		var g float64 // ∂(weight·loss)/∂ŷ
		switch {
		case quantile:
			if d := target - pred; d > 0 {
				loss += xi * d
			} else {
				loss += (xi - 1) * d
			}
			if target > pred {
				g += -xi * c
			} else {
				g += (1 - xi) * c
			}
		case proportional:
			// Relative squared error: weight each sample by 1/C*².
			wgt := 1 / (target * target)
			d := pred - target
			loss += wgt * d * d
			g += c * wgt * d
		default:
			d := pred - target
			loss += d * d
			g += c * d
		}

		pg := gp.Row(bt.pj[b])
		u := sc.u.Row(b) // each interferer row's gradient
		v := sc.v.Row(b) // the target row's gradient
		clear(u)
		clear(v)
		for t := nt - 1; t >= 0; t-- {
			var gSus, gMag float64
			gSus += g * sc.act[t]
			gMag += g * sc.sus[t]
			if activation {
				df := 1.0
				if !(sc.mag[t] > 0) {
					df = slope
				}
				gAct := gMag
				gMag = 0
				gMag += gAct * df
			}
			if gSus != 0 {
				vs := prow[r*(1+t) : r*(2+t)]
				dst := pg[r*(1+t) : r*(2+t)]
				for j, x := range wi {
					v[j] += gSus * vs[j]
					dst[j] += float64(gSus * x)
				}
			}
			if gMag != 0 {
				vg := prow[r*(1+s+t) : r*(2+s+t)]
				for j, x := range vg {
					u[j] += gMag * x
				}
				row := sc.row
				clear(row)
				for mi := deg - 1; mi >= 0; mi-- {
					for j, x := range wD.Row(bt.ks[mi][b])[lo:hi] {
						row[j] += gMag * x
					}
				}
				dst := pg[r*(1+s+t) : r*(2+s+t)]
				for j, x := range row {
					dst[j] += x
				}
			}
		}
		if g != 0 {
			pj, dst := prow[:r], pg[:r]
			for j, x := range wi {
				v[j] += g * pj[j]
				dst[j] += float64(g * x)
			}
		}
	}

	for mi := deg - 1; mi >= 0; mi-- {
		tensor.ScatterAddRows(gw, sc.u, bt.ks[mi])
	}
	tensor.ScatterAddRows(gw, sc.v, bt.wi)
	return loss / nf
}

// lossScratch is one worker's reusable state for headLossGrad: each
// sample's interferer-row and target-row gradients, one vg gradient row,
// and a sample's per-type forward scalars. One worker holds it at a time
// and runs its tasks on it in turn.
type lossScratch struct {
	u, v          *tensor.Matrix // B x r
	row           []float64      // r
	sus, act, mag []float64      // s
}

var lossScratchPool = sync.Pool{New: func() any { return new(lossScratch) }}

func (sc *lossScratch) reserve(n, r, s int) {
	sc.u, sc.v = reshape(sc.u, n, r), reshape(sc.v, n, r)
	sc.row = growFloats(sc.row, r)
	sc.sus, sc.act, sc.mag = growFloats(sc.sus, s), growFloats(sc.act, s), growFloats(sc.mag, s)
}

// reshape returns m resized to rows x cols, reusing its storage when it
// is large enough. The contents are unspecified.
func reshape(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m == nil || cap(m.Data) < rows*cols {
		return tensor.New(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// batchLossInfer computes the training loss of one batch across all heads
// without building a tape or any gradient.
func (m *Model) batchLossInfer(wE, pE *tensor.Matrix, bt batch) float64 {
	n := len(bt.target)
	if n == 0 {
		return 0
	}
	preds := make([]float64, n)
	if len(m.Cfg.Quantiles) == 0 {
		m.predictResidualsInto(preds, wE, pE, bt, 0)
		var loss float64
		if m.Cfg.Objective == ObjProportional {
			for i, p := range preds {
				c := bt.target[i]
				d := (p - c) / c
				loss += d * d
			}
		} else {
			for i, p := range preds {
				d := p - bt.target[i]
				loss += d * d
			}
		}
		return loss / float64(n)
	}
	var total float64
	for h, xi := range m.Cfg.Quantiles {
		m.predictResidualsInto(preds, wE, pE, bt, h)
		var loss float64
		for i, p := range preds {
			d := bt.target[i] - p
			if d > 0 {
				loss += xi * d
			} else {
				loss += (xi - 1) * d
			}
		}
		total += loss / float64(n)
	}
	return total / float64(len(m.Cfg.Quantiles))
}
