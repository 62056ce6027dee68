package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/autodiff"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// TrainResult summarizes one training run.
type TrainResult struct {
	Steps       int
	BestValLoss float64
	ValHistory  []float64
}

// Train fits the model on split.Train with AdaMax, selecting the checkpoint
// with the lowest validation loss (App. B.3). It fits the linear-scaling
// baseline first, then optimizes the factorization residual.
func (m *Model) Train(split dataset.Split) (*TrainResult, error) {
	cfg := m.Cfg
	if cfg.Objective == ObjLogResidual {
		m.Baseline = FitLinearBaseline(m.data, split.Train, 0)
	} else {
		m.Baseline = &LinearBaseline{
			W: make([]float64, m.data.NumWorkloads()),
			P: make([]float64, m.data.NumPlatforms()),
		}
	}

	trainIdx := m.filterIndices(split.Train)
	valIdx := m.filterIndices(split.Val)
	if len(trainIdx) == 0 {
		return nil, fmt.Errorf("core: empty training set after filtering")
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))
	batcher := dataset.NewBatcher(rng, m.data, trainIdx)

	optimizer := opt.NewAdaMax(m.params, cfg.LR, 0, 0)
	res := &TrainResult{BestValLoss: math.Inf(1)}
	var best []*tensor.Matrix

	var batches []batch
	var weights []float64
	for step := 1; step <= cfg.Steps; step++ {
		batches, weights = batches[:0], weights[:0]
		var wsum float64
		for _, deg := range batcher.Degrees {
			idx := batcher.Sample(deg, cfg.BatchPerDegree)
			if idx == nil {
				continue
			}
			weight := 1.0
			if deg > 0 {
				weight = cfg.Beta / 3
			}
			batches = append(batches, m.makeBatch(idx, cfg.Interference == InterferenceIgnore))
			weights = append(weights, weight)
			wsum += weight
		}
		if len(batches) == 0 {
			return nil, fmt.Errorf("core: no batches drawn")
		}
		for i := range weights {
			weights[i] /= wsum
		}
		m.runStep(batches, weights)
		optimizer.Step()
		optimizer.ZeroGrads()

		if step%cfg.EvalEvery == 0 || step == cfg.Steps {
			vl := m.evalLoss(valIdx)
			res.ValHistory = append(res.ValHistory, vl)
			if vl < res.BestValLoss {
				res.BestValLoss = vl
				best = nn.Snapshot(m.params)
			}
		}
	}
	if best != nil {
		nn.Restore(m.params, best)
	}
	res.Steps = cfg.Steps
	m.SyncEmbeddings()
	return res, nil
}

// lossTask is one (degree-batch, head) unit of a training step's objective.
type lossTask struct {
	bt     batch
	head   int
	weight float64 // this task's contribution to the total loss
}

// expandTasks flattens normalized per-batch weights into per-(batch, head)
// tasks. Quantile heads split their batch's weight evenly (App. B.3), which
// also lets each head's task run on its own goroutine.
func (m *Model) expandTasks(batches []batch, weights []float64) []lossTask {
	nh := m.Cfg.NumHeads()
	tasks := make([]lossTask, 0, len(batches)*nh)
	for i, bt := range batches {
		for h := 0; h < nh; h++ {
			tasks = append(tasks, lossTask{bt: bt, head: h, weight: weights[i] / float64(nh)})
		}
	}
	return tasks
}

// runStep executes one optimization step over pre-normalized batch weights:
// shared tower forward, per-(batch, head) loss kernels (headLossGrad)
// fanned out across workers, deterministic gradient accumulation, tower
// backward, and release back to the matrix pool. It returns the weighted
// training loss.
//
// Parallelism never changes the result: each task accumulates into its own
// gradient buffers, which are folded into the tower gradients sequentially
// in task order, so floating-point accumulation order is fixed regardless
// of worker count or goroutine scheduling. A task's w gradient covers only
// its head's column window. Folding just that window is exact: the
// columns outside it would receive +0, and a gradient accumulated from +0
// is never −0, so adding +0 cannot change it.
func (m *Model) runStep(batches []batch, weights []float64) float64 {
	w, p := m.embeddings()
	tasks := m.expandTasks(batches, weights)
	r := m.Cfg.EmbeddingDim

	type taskGrad struct {
		loss   float64
		gw, gp *tensor.Matrix
	}
	grads := make([]taskGrad, len(tasks))
	run := func(i int, sc *lossScratch) {
		t := tasks[i]
		gw := tensor.GetPooled(w.Data.Rows, r)
		gp := tensor.GetPooled(p.Data.Rows, p.Data.Cols)
		loss := m.headLossGrad(w.Data, p.Data, gw, gp, t.bt, t.head, t.weight, sc)
		grads[i] = taskGrad{loss: loss, gw: gw, gp: gp}
	}
	workers := m.workers()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		sc := lossScratchPool.Get().(*lossScratch)
		for i := range tasks {
			run(i, sc)
		}
		lossScratchPool.Put(sc)
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := lossScratchPool.Get().(*lossScratch)
				defer lossScratchPool.Put(sc)
				for i := range next {
					run(i, sc)
				}
			}()
		}
		for i := range tasks {
			next <- i
		}
		close(next)
		wg.Wait()
	}

	var total float64
	for i := range grads {
		g := &grads[i]
		total += tasks[i].weight * g.loss
		lo := tasks[i].head * r
		for k := 0; k < g.gw.Rows; k++ {
			dst := w.Grad.Row(k)[lo : lo+r]
			for j, v := range g.gw.Row(k) {
				dst[j] += v
			}
		}
		tensor.AddInPlace(p.Grad, g.gp)
		tensor.PutPooled(g.gw)
		tensor.PutPooled(g.gp)
	}
	w.BackwardSeeded()
	p.BackwardSeeded()
	autodiff.ReleaseGraph(w, p)
	return total
}

// filterIndices applies the interference-mode filter: InterferenceDiscard
// keeps only isolation observations; other modes keep everything.
func (m *Model) filterIndices(idx []int) []int {
	if m.Cfg.Interference != InterferenceDiscard {
		return idx
	}
	var out []int
	for _, i := range idx {
		if m.data.Obs[i].Degree() == 0 {
			out = append(out, i)
		}
	}
	return out
}

// evalLoss computes the training objective on held-out indices, in fixed-
// degree chunks, with the same degree weighting as training. Validation
// never needs gradients, so it runs on the tape-free forward path — no
// graph nodes, no gradient buffers.
func (m *Model) evalLoss(idx []int) float64 {
	if len(idx) == 0 {
		return math.Inf(1)
	}
	pools, degrees := dataset.ByDegree(m.data, idx)
	wE, pE := m.embeddingsInfer()
	defer tensor.PutPooled(wE)
	defer tensor.PutPooled(pE)
	var total, wsum float64
	const chunk = 2048
	for _, deg := range degrees {
		pool := pools[deg]
		weight := 1.0
		if deg > 0 {
			weight = m.Cfg.Beta / 3
		}
		var sum float64
		var n int
		for lo := 0; lo < len(pool); lo += chunk {
			hi := lo + chunk
			if hi > len(pool) {
				hi = len(pool)
			}
			bt := m.makeBatch(pool[lo:hi], m.Cfg.Interference == InterferenceIgnore)
			sum += m.batchLossInfer(wE, pE, bt) * float64(hi-lo)
			n += hi - lo
		}
		total += weight * sum / float64(n)
		wsum += weight
	}
	return total / wsum
}
