package autodiff

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randMat(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// numericalGrad computes the finite-difference gradient of loss(params) with
// respect to param, where build reconstructs the scalar loss from scratch
// (so perturbations propagate).
func numericalGrad(param *tensor.Matrix, build func() float64) *tensor.Matrix {
	const h = 1e-6
	g := tensor.New(param.Rows, param.Cols)
	for i := range param.Data {
		orig := param.Data[i]
		param.Data[i] = orig + h
		up := build()
		param.Data[i] = orig - h
		down := build()
		param.Data[i] = orig
		g.Data[i] = (up - down) / (2 * h)
	}
	return g
}

// checkGrad verifies analytic vs numerical gradients for a graph builder.
func checkGrad(t *testing.T, name string, params []*tensor.Matrix, build func(vals []*Value) *Value) {
	t.Helper()
	vals := make([]*Value, len(params))
	for i, p := range params {
		vals[i] = NewParam(p)
	}
	loss := build(vals)
	loss.Backward()
	for i, p := range params {
		num := numericalGrad(p, func() float64 {
			vs := make([]*Value, len(params))
			for j, q := range params {
				vs[j] = NewParam(q)
			}
			return build(vs).Scalar()
		})
		if !tensor.Equal(vals[i].Grad, num, 1e-4) {
			t.Errorf("%s param %d: analytic %v != numerical %v", name, i, vals[i].Grad, num)
		}
	}
}

func TestGradAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randMat(rng, 3, 2), randMat(rng, 3, 2)
	checkGrad(t, "add", []*tensor.Matrix{a, b}, func(v []*Value) *Value {
		return Sum(Add(v[0], v[1]))
	})
}

func TestGradSub(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 2, 3), randMat(rng, 2, 3)
	checkGrad(t, "sub", []*tensor.Matrix{a, b}, func(v []*Value) *Value {
		return Sum(Square(Sub(v[0], v[1])))
	})
}

func TestGradMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randMat(rng, 2, 2), randMat(rng, 2, 2)
	checkGrad(t, "mul", []*tensor.Matrix{a, b}, func(v []*Value) *Value {
		return Sum(Mul(v[0], v[1]))
	})
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randMat(rng, 3, 4), randMat(rng, 4, 2)
	checkGrad(t, "matmul", []*tensor.Matrix{a, b}, func(v []*Value) *Value {
		return Sum(Square(MatMul(v[0], v[1])))
	})
}

func TestGradAddRowVector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, bias := randMat(rng, 4, 3), randMat(rng, 1, 3)
	checkGrad(t, "addrow", []*tensor.Matrix{m, bias}, func(v []*Value) *Value {
		return Sum(Square(AddRowVector(v[0], v[1])))
	})
}

func TestGradGather(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	table := randMat(rng, 5, 3)
	idx := []int{4, 1, 1, 0} // repeated index exercises scatter-accumulation
	checkGrad(t, "gather", []*tensor.Matrix{table}, func(v []*Value) *Value {
		return Sum(Square(Gather(v[0], idx)))
	})
}

func TestGradConcatSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := randMat(rng, 3, 2), randMat(rng, 3, 3)
	checkGrad(t, "concat+slice", []*tensor.Matrix{a, b}, func(v []*Value) *Value {
		c := ConcatCols(v[0], v[1])
		left := SliceCols(c, 0, 3)
		return Sum(Square(left))
	})
}

func TestGradRowSum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randMat(rng, 4, 3)
	checkGrad(t, "rowsum", []*tensor.Matrix{a}, func(v []*Value) *Value {
		return Sum(Square(RowSum(v[0])))
	})
}

func TestGradMean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMat(rng, 3, 3)
	checkGrad(t, "mean", []*tensor.Matrix{a}, func(v []*Value) *Value {
		return Mean(Square(v[0]))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct {
		name string
		f    func(*Value) *Value
	}{
		{"gelu", GELU},
		{"relu", ReLU},
		{"leakyrelu", func(v *Value) *Value { return LeakyReLU(v, 0.1) }},
		{"tanh", Tanh},
		{"sigmoid", Sigmoid},
		{"exp", Exp},
		{"square", Square},
		{"softmax", Softmax},
	}
	for _, c := range cases {
		a := randMat(rng, 3, 4)
		// Shift away from 0 to avoid the ReLU kink breaking finite differences.
		for i := range a.Data {
			if math.Abs(a.Data[i]) < 0.05 {
				a.Data[i] += 0.2
			}
		}
		checkGrad(t, c.name, []*tensor.Matrix{a}, func(v []*Value) *Value {
			return Sum(Square(c.f(v[0])))
		})
	}
}

func TestGradAbs(t *testing.T) {
	a := tensor.FromSlice(1, 3, []float64{-2, 3, -0.5})
	checkGrad(t, "abs", []*tensor.Matrix{a}, func(v []*Value) *Value {
		return Sum(Abs(v[0]))
	})
}

func TestGradMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pred, target := randMat(rng, 5, 1), randMat(rng, 5, 1)
	checkGrad(t, "mse", []*tensor.Matrix{pred}, func(v []*Value) *Value {
		return MSE(v[0], target)
	})
}

func TestGradWeightedMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pred, target := randMat(rng, 4, 1), randMat(rng, 4, 1)
	w := tensor.FromSlice(4, 1, []float64{1, 0.5, 2, 0})
	checkGrad(t, "wmse", []*tensor.Matrix{pred}, func(v []*Value) *Value {
		return WeightedMSE(v[0], target, w)
	})
}

func TestGradPinball(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, xi := range []float64{0.1, 0.5, 0.9, 0.99} {
		pred, target := randMat(rng, 6, 1), randMat(rng, 6, 1)
		checkGrad(t, "pinball", []*tensor.Matrix{pred}, func(v []*Value) *Value {
			return Pinball(v[0], target, xi)
		})
	}
}

func TestGradSharedSubexpression(t *testing.T) {
	// x used twice: d/dx sum(x∘x + x) = 2x + 1.
	x := tensor.FromSlice(1, 3, []float64{1, -2, 3})
	v := NewParam(x)
	loss := Sum(Add(Mul(v, v), v))
	loss.Backward()
	want := tensor.FromSlice(1, 3, []float64{3, -3, 7})
	if !tensor.Equal(v.Grad, want, 1e-12) {
		t.Fatalf("shared-subexpression grad %v want %v", v.Grad, want)
	}
}

func TestGradDeepChain(t *testing.T) {
	// A long chain must not blow the stack and must stay correct:
	// f(x) = x scaled by 0.999^N, gradient is 0.999^N.
	x := tensor.FromSlice(1, 1, []float64{2})
	v := NewParam(x)
	cur := v
	const n = 5000
	for i := 0; i < n; i++ {
		cur = Scale(cur, 0.999)
	}
	Sum(cur).Backward()
	want := math.Pow(0.999, n)
	if math.Abs(v.Grad.Data[0]-want) > 1e-9 {
		t.Fatalf("deep chain grad %v want %v", v.Grad.Data[0], want)
	}
}

func TestConstantsGetNoGrad(t *testing.T) {
	c := NewConst(tensor.FromSlice(1, 2, []float64{1, 2}))
	p := NewParam(tensor.FromSlice(1, 2, []float64{3, 4}))
	loss := Sum(Mul(c, p))
	loss.Backward()
	if c.Grad != nil && c.Grad.MaxAbs() != 0 {
		t.Fatal("constant accumulated gradient")
	}
	if !tensor.Equal(p.Grad, tensor.FromSlice(1, 2, []float64{1, 2}), 1e-12) {
		t.Fatalf("param grad %v", p.Grad)
	}
}

func TestZeroGrad(t *testing.T) {
	p := NewParam(tensor.FromSlice(1, 1, []float64{5}))
	Sum(Square(p)).Backward()
	if p.Grad.Data[0] == 0 {
		t.Fatal("no grad accumulated")
	}
	p.ZeroGrad()
	if p.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestGradAccumulatesAcrossBackward(t *testing.T) {
	p := NewParam(tensor.FromSlice(1, 1, []float64{3}))
	Sum(Square(p)).Backward() // grad 6
	Sum(Square(p)).Backward() // grad 12
	if math.Abs(p.Grad.Data[0]-12) > 1e-12 {
		t.Fatalf("grad %v want 12 (accumulated)", p.Grad.Data[0])
	}
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewParam(tensor.New(2, 2)).Backward()
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func(r8, c8 uint8) bool {
		r, c := int(r8%6)+1, int(c8%6)+1
		s := Softmax(NewConst(randMat(rng, r, c)))
		for i := 0; i < r; i++ {
			var sum float64
			for _, v := range s.Data.Row(i) {
				if v < 0 || v > 1 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Pinball at xi=0.5 equals half the mean absolute error.
func TestPinballHalfMAE(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pred := NewConst(randMat(rng, 10, 1))
	target := randMat(rng, 10, 1)
	pb := Pinball(pred, target, 0.5).Scalar()
	var mae float64
	for i, p := range pred.Data.Data {
		mae += math.Abs(target.Data[i] - p)
	}
	mae /= 10
	if math.Abs(pb-mae/2) > 1e-12 {
		t.Fatalf("pinball(0.5)=%v, mae/2=%v", pb, mae/2)
	}
}

// GELU must match known reference values.
func TestGELUReference(t *testing.T) {
	in := NewConst(tensor.FromSlice(1, 3, []float64{0, 1, -1}))
	out := GELU(in)
	want := []float64{0, 0.8413447460685429, -0.15865525393145707}
	for i, w := range want {
		if math.Abs(out.Data.Data[i]-w) > 1e-12 {
			t.Fatalf("gelu[%d]=%v want %v", i, out.Data.Data[i], w)
		}
	}
}

func TestEndToEndTwoTowerGradient(t *testing.T) {
	// A miniature two-tower + interference graph, exactly the composition
	// used by the Pitot model, gradient-checked end to end.
	rng := rand.New(rand.NewSource(16))
	wTable := randMat(rng, 4, 3) // 4 workload embeddings, r=3
	pTable := randMat(rng, 3, 3) // 3 platform embeddings
	vs := randMat(rng, 3, 3)     // susceptibility per platform
	vg := randMat(rng, 3, 3)     // magnitude per platform
	target := randMat(rng, 2, 1)
	wi := []int{0, 2}
	pj := []int{1, 0}
	wk := []int{3, 1}

	build := func(v []*Value) *Value {
		w := Gather(v[0], wi)
		p := Gather(v[1], pj)
		base := RowSum(Mul(w, p))
		sus := RowSum(Mul(w, Gather(v[2], pj)))
		mag := RowSum(Mul(Gather(v[0], wk), Gather(v[3], pj)))
		interf := Mul(sus, LeakyReLU(mag, 0.1))
		return MSE(Add(base, interf), target)
	}
	checkGrad(t, "two-tower", []*tensor.Matrix{wTable, pTable, vs, vg}, build)
}

func BenchmarkBackwardMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	x := NewConst(randMat(rng, 256, 64))
	w1 := NewParam(randMat(rng, 64, 128))
	b1 := NewParam(randMat(rng, 1, 128))
	w2 := NewParam(randMat(rng, 128, 128))
	b2 := NewParam(randMat(rng, 1, 128))
	w3 := NewParam(randMat(rng, 128, 32))
	target := randMat(rng, 256, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := GELU(AddRowVector(MatMul(x, w1), b1))
		h = GELU(AddRowVector(MatMul(h, w2), b2))
		loss := MSE(MatMul(h, w3), target)
		loss.Backward()
		w1.ZeroGrad()
		b1.ZeroGrad()
		w2.ZeroGrad()
		b2.ZeroGrad()
		w3.ZeroGrad()
	}
}

func TestGradRowDot(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a, b := randMat(rng, 5, 4), randMat(rng, 5, 4)
	checkGrad(t, "rowdot", []*tensor.Matrix{a, b}, func(v []*Value) *Value {
		return Sum(Square(RowDot(v[0], v[1])))
	})
}

func TestRowDotMatchesRowSumMul(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	aM, bM := randMat(rng, 6, 3), randMat(rng, 6, 3)
	a1, b1 := NewParam(aM.Clone()), NewParam(bM.Clone())
	a2, b2 := NewParam(aM.Clone()), NewParam(bM.Clone())
	fused := RowDot(a1, b1)
	unfused := RowSum(Mul(a2, b2))
	if !tensor.Equal(fused.Data, unfused.Data, 1e-12) {
		t.Fatal("RowDot forward diverges from RowSum(Mul)")
	}
	Sum(Square(fused)).Backward()
	Sum(Square(unfused)).Backward()
	if !tensor.Equal(a1.Grad, a2.Grad, 1e-12) || !tensor.Equal(b1.Grad, b2.Grad, 1e-12) {
		t.Fatal("RowDot backward diverges from RowSum(Mul)")
	}
}

func TestGradGatherCols(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	table := randMat(rng, 5, 6)
	idx := []int{4, 1, 1, 0} // repeated index exercises scatter-accumulation
	checkGrad(t, "gathercols", []*tensor.Matrix{table}, func(v []*Value) *Value {
		return Sum(Square(GatherCols(v[0], idx, 2, 5)))
	})
}

func TestGatherColsMatchesGatherSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tM := randMat(rng, 7, 8)
	idx := []int{6, 2, 2, 5}
	t1, t2 := NewParam(tM.Clone()), NewParam(tM.Clone())
	fused := GatherCols(t1, idx, 3, 7)
	unfused := SliceCols(Gather(t2, idx), 3, 7)
	if !tensor.Equal(fused.Data, unfused.Data, 0) {
		t.Fatal("GatherCols forward diverges from Gather+SliceCols")
	}
	Sum(Square(fused)).Backward()
	Sum(Square(unfused)).Backward()
	if !tensor.Equal(t1.Grad, t2.Grad, 1e-12) {
		t.Fatal("GatherCols backward diverges from Gather+SliceCols")
	}
}

func TestGradConcatConstCols(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	feats := randMat(rng, 4, 3)
	table := randMat(rng, 4, 2)
	checkGrad(t, "concatconst", []*tensor.Matrix{table}, func(v []*Value) *Value {
		return Sum(Square(ConcatConstCols(feats, v[0])))
	})
	// Forward must match the unfused ConcatCols of const + identity gather.
	p := NewParam(table)
	all := []int{0, 1, 2, 3}
	want := ConcatCols(NewConst(feats), Gather(p, all))
	got := ConcatConstCols(feats, p)
	if !tensor.Equal(got.Data, want.Data, 0) {
		t.Fatal("ConcatConstCols forward diverges")
	}
	// nil feats degenerates to an identity view of the table.
	if g := ConcatConstCols(nil, p); !tensor.Equal(g.Data, table, 0) {
		t.Fatal("ConcatConstCols(nil, table) should equal table")
	}
}

func TestConcurrentDisjointBackward(t *testing.T) {
	// Disjoint graphs must be differentiable concurrently (the parallel
	// per-degree training path); run under -race to verify.
	rng := rand.New(rand.NewSource(24))
	base := randMat(rng, 8, 8)
	var wg sync.WaitGroup
	grads := make([]*tensor.Matrix, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := NewParam(base.Clone())
			Sum(Square(Gather(p, []int{1, 3, 3}))).Backward()
			grads[g] = p.Grad
		}(g)
	}
	wg.Wait()
	for g := 1; g < 16; g++ {
		if !tensor.Equal(grads[g], grads[0], 0) {
			t.Fatal("concurrent backward nondeterministic")
		}
	}
}

func TestReleaseGraphRecyclesAndPreservesLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	xM := randMat(rng, 4, 4)
	p := NewParam(xM.Clone())
	c := NewConst(xM)
	h := Mul(p, c)
	sq := Square(h)
	loss := Sum(sq)
	loss.Backward()
	gradBefore := p.Grad.Clone()
	ReleaseGraph(loss, h)
	if p.Data == nil || p.Grad == nil || !tensor.Equal(p.Grad, gradBefore, 0) {
		t.Fatal("ReleaseGraph touched parameter storage")
	}
	if c.Data == nil {
		t.Fatal("ReleaseGraph touched constant storage")
	}
	if sq.Grad != nil || h.Data != nil || loss.Data != nil {
		t.Fatal("ReleaseGraph left interior buffers live")
	}
}

// The pooled graph engine must not allocate fresh matrix storage once the
// pool is warm: only the fixed per-node bookkeeping (Value structs, slices,
// closures) remains.
func TestPooledGraphSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	x := NewConst(randMat(rng, 128, 32))
	w := NewParam(randMat(rng, 32, 32))
	step := func() {
		h := GELU(MatMul(x, w))
		loss := Mean(Square(RowDot(h, x)))
		loss.Backward()
		w.ZeroGrad()
		ReleaseGraph(loss)
	}
	step() // warm the pool
	allocs := testing.AllocsPerRun(20, step)
	// 6 graph nodes of fixed bookkeeping each; matrix payloads (128x32
	// floats = 32 KiB per op) must all come from the pool. The bound is
	// deliberately loose on node-count bookkeeping but far below a single
	// payload allocation.
	if allocs > 60 {
		t.Fatalf("pooled graph step allocates %v objects; pool not effective", allocs)
	}
}

// poisonPool leaves one buffer of rows x cols's size class in the matrix
// pool with every slot set to v.
func poisonPool(rows, cols int, v float64) {
	m := tensor.GetPooled(rows, cols)
	m.Data = m.Data[:cap(m.Data)]
	m.Fill(v)
	tensor.PutPooled(m)
}

// Op outputs come from the pool unzeroed, so every op must write each
// element of its output. Each op runs twice over constant inputs (so its
// output is the only pool draw), once right after leaving a zero-filled
// buffer of the output's size class in the pool and once after leaving a
// NaN-filled one: any element an op fails to write shows up as a
// difference.
func TestOpOutputsOverwriteDirtyPool(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	c := func(r, cols int) *Value { return NewConst(randMat(rng, r, cols)) }
	a, b := c(5, 6), c(5, 6)
	sq := c(6, 3)
	row := c(1, 6)
	feats := randMat(rng, 5, 2)
	target := randMat(rng, 5, 6)
	weight := randMat(rng, 5, 6)
	ops := []struct {
		name string
		f    func() *Value
	}{
		{"Add", func() *Value { return Add(a, b) }},
		{"Sub", func() *Value { return Sub(a, b) }},
		{"Mul", func() *Value { return Mul(a, b) }},
		{"Scale", func() *Value { return Scale(a, -1.5) }},
		{"AddScalar", func() *Value { return AddScalar(a, 2) }},
		{"MatMul", func() *Value { return MatMul(a, sq) }},
		{"AddRowVector", func() *Value { return AddRowVector(a, row) }},
		{"Gather", func() *Value { return Gather(a, []int{4, 0, 4}) }},
		{"GatherCols", func() *Value { return GatherCols(a, []int{1, 3}, 2, 5) }},
		{"ConcatCols", func() *Value { return ConcatCols(a, b) }},
		{"ConcatConstCols", func() *Value { return ConcatConstCols(feats, a) }},
		{"ConcatConstColsNil", func() *Value { return ConcatConstCols(nil, a) }},
		{"SliceCols", func() *Value { return SliceCols(a, 1, 4) }},
		{"RowSum", func() *Value { return RowSum(a) }},
		{"RowDot", func() *Value { return RowDot(a, b) }},
		{"Sum", func() *Value { return Sum(a) }},
		{"Mean", func() *Value { return Mean(a) }},
		{"GELU", func() *Value { return GELU(a) }},
		{"Softmax", func() *Value { return Softmax(a) }},
		{"MSE", func() *Value { return MSE(a, target) }},
		{"WeightedMSE", func() *Value { return WeightedMSE(a, target, weight) }},
		{"Pinball", func() *Value { return Pinball(a, target, 0.9) }},
	}
	for _, op := range ops {
		shape := op.f()
		r, cols := shape.Rows(), shape.Cols()
		poisonPool(r, cols, 0)
		want := op.f().Data
		poisonPool(r, cols, math.NaN())
		got := op.f().Data
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: output element %d is %v on a dirty pool buffer, %v on a clean one",
					op.name, i, v, want.Data[i])
			}
		}
	}
}
