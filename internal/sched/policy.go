package sched

import (
	"fmt"
	"math"
)

// Policy scores candidate placements, a whole candidate set (or wave) per
// call. Score fills two facets for every query: feas[i] is the
// feasibility value of qs[i] — compared against the deadline and reported
// as the assignment's Budget; lower is better, +Inf marks the candidate
// infeasible — and rank[i] is what strategies order feasible candidates
// by. Single-head policies set rank = feas; the mixed-head policies gate
// feasibility on the conformal bound but rank by the (padded) mean. The
// values must be fully determined by the query (deadline feasibility is
// the scheduler's concern), so a wave pre-scored once is decision-identical
// to scoring each job afresh. len(feas) == len(rank) == len(qs).
type Policy interface {
	Name() string
	Score(pred BatchPredictor, qs []Query, feas, rank []float64)
}

// MeanPolicy places on the expected runtime — the natural choice when only
// a point predictor is available. It systematically underestimates tail
// latency, which the simulation harness exposes.
type MeanPolicy struct{}

// Name implements Policy.
func (MeanPolicy) Name() string { return "mean" }

// Score implements Policy.
func (MeanPolicy) Score(pred BatchPredictor, qs []Query, feas, rank []float64) {
	copy(feas, pred.EstimateSecondsBatch(qs))
	copy(rank, feas)
}

// BoundPolicy places on the conformal (1−eps)-sufficient runtime bound,
// giving each placement a per-job probabilistic deadline guarantee.
type BoundPolicy struct{ Eps float64 }

// Name implements Policy.
func (p BoundPolicy) Name() string { return fmt.Sprintf("bound(eps=%.2f)", p.Eps) }

// Score implements Policy; all candidates share one conformal calibration
// fetch.
func (p BoundPolicy) Score(pred BatchPredictor, qs []Query, feas, rank []float64) {
	copy(feas, pred.BoundSecondsBatch(qs, p.Eps))
	copy(rank, feas)
}

// PaddedMeanPolicy is the common heuristic alternative: mean estimate
// inflated by a fixed safety factor. It has no calibration guarantee —
// too small on volatile platforms, wasteful on stable ones.
type PaddedMeanPolicy struct{ Factor float64 }

// Name implements Policy.
func (p PaddedMeanPolicy) Name() string { return fmt.Sprintf("mean*%.1f", p.Factor) }

// Score implements Policy.
func (p PaddedMeanPolicy) Score(pred BatchPredictor, qs []Query, feas, rank []float64) {
	copy(feas, pred.EstimateSecondsBatch(qs))
	for i := range feas {
		feas[i] *= p.Factor
	}
	copy(rank, feas)
}

// MeanBoundPolicy is the mixed-head policy the fused scoring path exists
// for: feasibility (and the reported budget) comes from the conformal
// (1−eps)-sufficient bound — every placement keeps its probabilistic
// deadline guarantee — while strategies rank the feasible platforms by the
// expected runtime, so e.g. BestFit packs on mean headroom ("best-fit
// mean, feasible bound") instead of on the padded bound.
type MeanBoundPolicy struct{ Eps float64 }

// Name implements Policy.
func (p MeanBoundPolicy) Name() string { return fmt.Sprintf("mean|bound(eps=%.2f)", p.Eps) }

// Score implements Policy.
func (p MeanBoundPolicy) Score(pred BatchPredictor, qs []Query, feas, rank []float64) {
	scoreHeads(pred, qs, p.Eps, rank, feas)
}

// PaddedBoundPolicy gates feasibility on the conformal bound but ranks by
// the padded mean — the tie-break heuristic deployments that already run
// padded-mean scheduling can keep while upgrading their guarantee to the
// calibrated bound.
type PaddedBoundPolicy struct {
	Eps    float64
	Factor float64
}

// Name implements Policy.
func (p PaddedBoundPolicy) Name() string {
	return fmt.Sprintf("padded*%.1f|bound(eps=%.2f)", p.Factor, p.Eps)
}

// Score implements Policy.
func (p PaddedBoundPolicy) Score(pred BatchPredictor, qs []Query, feas, rank []float64) {
	scoreHeads(pred, qs, p.Eps, rank, feas)
	for i := range rank {
		rank[i] *= p.Factor
	}
}

// scoreHeads fills mean[i] with the expected runtime and bound[i] with the
// 1−eps budget of qs[i]: one fused two-head pass when the predictor
// supports it, two batch passes otherwise.
func scoreHeads(pred BatchPredictor, qs []Query, eps float64, mean, bound []float64) {
	if fp, ok := pred.(FusedPredictor); ok {
		fp.ScoreSecondsBatch(qs, eps, mean, bound)
		return
	}
	copy(mean, pred.EstimateSecondsBatch(qs))
	copy(bound, pred.BoundSecondsBatch(qs, eps))
}

// ParsePolicy resolves a policy by name: "mean", "padded" (mean×factor),
// "bound" (conformal 1−eps budget), or the mixed-head policies
// "mean-bound" (rank on mean, feasibility on bound) and "padded-bound"
// (rank on padded mean, feasibility on bound). A factor ≤ 0 means the
// default padding (1.3); a non-finite factor is an error.
func ParsePolicy(name string, eps, factor float64) (Policy, error) {
	needEps := func() error {
		if !(eps > 0 && eps < 1) {
			return fmt.Errorf("sched: %s policy needs eps in (0,1), got %v", name, eps)
		}
		return nil
	}
	if math.IsNaN(factor) || math.IsInf(factor, 0) {
		return nil, fmt.Errorf("sched: padding factor must be finite, got %v", factor)
	}
	if factor <= 0 {
		factor = 1.3
	}
	switch name {
	case "mean":
		return MeanPolicy{}, nil
	case "padded":
		return PaddedMeanPolicy{Factor: factor}, nil
	case "bound":
		if err := needEps(); err != nil {
			return nil, err
		}
		return BoundPolicy{Eps: eps}, nil
	case "mean-bound":
		if err := needEps(); err != nil {
			return nil, err
		}
		return MeanBoundPolicy{Eps: eps}, nil
	case "padded-bound":
		if err := needEps(); err != nil {
			return nil, err
		}
		return PaddedBoundPolicy{Eps: eps, Factor: factor}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (want mean, padded, bound, mean-bound, or padded-bound)", name)
}
