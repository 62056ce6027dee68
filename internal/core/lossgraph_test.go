package core

import (
	"repro/internal/autodiff"
	"repro/internal/tensor"
)

// The autodiff formulation of the training objective. Production trains
// through headLossGrad; these graphs are the reference it must match bit
// for bit (TestHeadLossGradMatchesGraph) and the oracle of the tape-free
// forward paths.

// predictBatch builds the prediction graph for one batch and head h
// (paper Eq. 9):
//
//	ŷ = wᵢᵀpⱼ + Σ_t (wᵢᵀ v_s⁽ᵗ⁾) · α( Σ_k w_kᵀ v_g⁽ᵗ⁾ )
//
// returning a B x 1 Value of residual predictions. Embedding lookups use
// the fused GatherCols (no full-width row copies for multi-head tables)
// and the inner products use the fused RowDot (no B x r intermediates).
func (m *Model) predictBatch(w, p *autodiff.Value, bt batch, h int) *autodiff.Value {
	r, s := m.Cfg.EmbeddingDim, m.Cfg.InterferenceTypes
	lo, hi := h*r, (h+1)*r
	wi := autodiff.GatherCols(w, bt.wi, lo, hi)
	pj := autodiff.GatherCols(p, bt.pj, 0, r)
	pred := autodiff.RowDot(wi, pj)

	if bt.degree > 0 && m.Cfg.Interference == InterferenceAware && s > 0 {
		// Gather interferer embeddings once per slot.
		wks := make([]*autodiff.Value, bt.degree)
		for mi := 0; mi < bt.degree; mi++ {
			wks[mi] = autodiff.GatherCols(w, bt.ks[mi], lo, hi)
		}
		for t := 0; t < s; t++ {
			vs := autodiff.GatherCols(p, bt.pj, r*(1+t), r*(2+t))
			vg := autodiff.GatherCols(p, bt.pj, r*(1+s+t), r*(2+s+t))
			var mag *autodiff.Value
			for mi := 0; mi < bt.degree; mi++ {
				term := autodiff.RowDot(wks[mi], vg)
				if mag == nil {
					mag = term
				} else {
					mag = autodiff.Add(mag, term)
				}
			}
			if m.Cfg.UseActivation {
				mag = autodiff.LeakyReLU(mag, m.Cfg.ActivationSlope)
			}
			sus := autodiff.RowDot(wi, vs)
			pred = autodiff.Add(pred, autodiff.Mul(sus, mag))
		}
	}
	return pred
}

// headLoss builds the loss graph of one batch for a single head: pinball
// at the head's quantile, or the configured squared loss for the mean
// model (head 0).
func (m *Model) headLoss(w, p *autodiff.Value, bt batch, h int) *autodiff.Value {
	target := tensor.FromSlice(len(bt.target), 1, bt.target)
	pred := m.predictBatch(w, p, bt, h)
	if len(m.Cfg.Quantiles) == 0 {
		if m.Cfg.Objective == ObjProportional {
			// Relative squared error: weight each sample by 1/C*².
			wgt := tensor.New(target.Rows, 1)
			for i, c := range bt.target {
				wgt.Data[i] = 1 / (c * c)
			}
			return autodiff.WeightedMSE(pred, target, wgt)
		}
		return autodiff.MSE(pred, target)
	}
	return autodiff.Pinball(pred, target, m.Cfg.Quantiles[h])
}

// batchLoss computes the training loss of one batch across all heads.
// Quantile heads get equal weight (App. B.3).
func (m *Model) batchLoss(w, p *autodiff.Value, bt batch) *autodiff.Value {
	if len(m.Cfg.Quantiles) == 0 {
		return m.headLoss(w, p, bt, 0)
	}
	var total *autodiff.Value
	for h := range m.Cfg.Quantiles {
		l := m.headLoss(w, p, bt, h)
		if total == nil {
			total = l
		} else {
			total = autodiff.Add(total, l)
		}
	}
	return autodiff.Scale(total, 1/float64(len(m.Cfg.Quantiles)))
}

// graphStep is runStep as the graph computes it: one leaf pair per task
// sharing the tower outputs' data, each task's full-size gradients added
// into the tower gradients in task order, then the tower backward pass.
func (m *Model) graphStep(batches []batch, weights []float64) float64 {
	w, p := m.embeddings()
	var total float64
	for _, t := range m.expandTasks(batches, weights) {
		wL, pL := autodiff.NewParam(w.Data), autodiff.NewParam(p.Data)
		loss := m.headLoss(wL, pL, t.bt, t.head)
		loss.Grad.Data[0] = t.weight
		loss.BackwardSeeded()
		total += t.weight * loss.Scalar()
		tensor.AddInPlace(w.Grad, wL.Grad)
		tensor.AddInPlace(p.Grad, pL.Grad)
	}
	w.BackwardSeeded()
	p.BackwardSeeded()
	autodiff.ReleaseGraph(w, p)
	return total
}
