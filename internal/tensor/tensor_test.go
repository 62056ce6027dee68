package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewShape(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New not zero-initialized")
		}
	}
}

func TestFromSliceAndAtSet(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("At wrong: %v", m.Data)
	}
	m.Set(1, 1, 42)
	if m.At(1, 1) != 42 {
		t.Fatal("Set failed")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("FromRows wrong: %v", m)
	}
	empty := FromRows(nil)
	if empty.Rows != 0 || empty.Cols != 0 {
		t.Fatal("FromRows(nil) not empty")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	want := FromSlice(3, 2, []float64{1, 4, 2, 5, 3, 6})
	if !Equal(tr, want, 0) {
		t.Fatalf("Transpose = %v want %v", tr, want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(r8, c8 uint8) bool {
		r, c := int(r8%16)+1, int(c8%16)+1
		m := randMatrix(rng, r, c)
		return Equal(m.Transpose().Transpose(), m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MatMul = %v want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMatrix(rng, 5, 5)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if !Equal(MatMul(m, id), m, 1e-12) || !Equal(MatMul(id, m), m, 1e-12) {
		t.Fatal("identity multiplication failed")
	}
}

// refMatMul, refMatMulATB and refMatMulABT are the plain one-term loops
// the matrix products are defined by, kept as a bitwise oracle for the
// unrolled, multi-accumulator and row-parallel production kernels. Each
// output element sums its k terms in increasing k order; refMatMul and
// refMatMulATB skip a term whose left factor is zero.
func refMatMul(dst, a, b *Matrix, accumulate bool) {
	if !accumulate {
		dst.Zero()
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		drow := dst.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Data[k*n : (k+1)*n] {
				drow[j] += av * bv
			}
		}
	}
}

func refMatMulATB(dst, a, b *Matrix, accumulate bool) {
	if !accumulate {
		dst.Zero()
	}
	for k := 0; k < a.Rows; k++ {
		brow := b.Row(k)
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func refMatMulABT(dst, a, b *Matrix, accumulate bool) {
	for i := 0; i < a.Rows; i++ {
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range a.Row(i) {
				s += av * brow[k]
			}
			if accumulate {
				drow[j] += s
			} else {
				drow[j] = s
			}
		}
	}
}

// oracleMatrix draws a rows x cols matrix for the kernel oracle: normal
// entries salted, by mode, with whole zero rows and columns, -0, and
// sparse ±Inf/NaN.
func oracleMatrix(rng *rand.Rand, rows, cols, mode int) *Matrix {
	m := randMatrix(rng, rows, cols)
	if mode == 0 {
		return m
	}
	for i := 0; i < rows; i++ {
		if rng.Intn(5) == 0 {
			clear(m.Row(i))
		}
	}
	for j := 0; j < cols; j++ {
		if rng.Intn(5) == 0 {
			for i := 0; i < rows; i++ {
				m.Set(i, j, 0)
			}
		}
	}
	specials := []float64{0, math.Copysign(0, -1)}
	if mode == 2 {
		specials = append(specials, math.Inf(1), math.Inf(-1), math.NaN())
	}
	for i := range m.Data {
		if rng.Intn(40) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// sameBits reports whether a and b hold bitwise-identical elements: Equal
// at tolerance 0, the same sign on every zero and infinity, and NaN exactly
// where the other has NaN.
func sameBits(a, b *Matrix) bool {
	if !Equal(a, b, 0) {
		return false
	}
	for i, v := range a.Data {
		w := b.Data[i]
		if math.IsNaN(v) || math.IsNaN(w) {
			if math.IsNaN(v) != math.IsNaN(w) {
				return false
			}
			continue
		}
		if math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// TestMatMulParallelMatchesSerial checks the three matrix products against
// the one-term reference loops bit for bit: odd and prime shapes, shapes on
// both sides of minParallelWork, zero rows and columns, -0, ±Inf and NaN,
// with and without accumulate, at GOMAXPROCS 1 and 4.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	type shape struct{ r, k, c int }
	shapes := []shape{
		{1, 1, 1}, {1, 2, 3}, {2, 1, 5}, {3, 5, 7}, {7, 3, 2}, {13, 11, 17},
		{5, 31, 4}, {29, 8, 3}, {4, 4, 9},
		{67, 61, 67},   // just above minParallelWork
		{61, 67, 61},   // just below it
		{300, 120, 90}, // well above it, more rows than workers
		{2, 509, 263},  // above it with fewer rows than workers
	}
	kernels := []struct {
		name      string
		prod, ref func(dst, a, b *Matrix, accumulate bool)
		// dims gives a's and b's shapes for an r x c result with inner
		// dimension k.
		dims func(s shape) (ar, ac, br, bc int)
	}{
		{"MatMulInto", MatMulInto, refMatMul,
			func(s shape) (int, int, int, int) { return s.r, s.k, s.k, s.c }},
		{"MatMulATBInto", MatMulATBInto, refMatMulATB,
			func(s shape) (int, int, int, int) { return s.k, s.r, s.k, s.c }},
		{"MatMulABTInto", MatMulABTInto, refMatMulABT,
			func(s shape) (int, int, int, int) { return s.r, s.k, s.c, s.k }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(3))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, kn := range kernels {
			for _, s := range shapes {
				for mode := 0; mode < 3; mode++ {
					for _, acc := range []bool{false, true} {
						ar, ac, br, bc := kn.dims(s)
						a := oracleMatrix(rng, ar, ac, mode)
						b := oracleMatrix(rng, br, bc, mode)
						got := oracleMatrix(rng, s.r, s.c, mode)
						want := got.Clone()
						kn.prod(got, a, b, acc)
						kn.ref(want, a, b, acc)
						if !sameBits(got, want) {
							t.Fatalf("GOMAXPROCS %d %s %dx%dx%d mode %d accumulate %v: differs from the reference loop",
								procs, kn.name, s.r, s.k, s.c, mode, acc)
						}
					}
				}
			}
		}
	}
}

func TestMatMulAccumulate(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(2, 1, []float64{3, 4})
	dst := FromSlice(1, 1, []float64{100})
	MatMulInto(dst, a, b, true)
	if dst.At(0, 0) != 111 {
		t.Fatalf("accumulate got %v want 111", dst.At(0, 0))
	}
	MatMulInto(dst, a, b, false)
	if dst.At(0, 0) != 11 {
		t.Fatalf("overwrite got %v want 11", dst.At(0, 0))
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner dim mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulATB(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 7, 4)
	b := randMatrix(rng, 7, 5)
	got := MatMulATB(a, b)
	want := MatMul(a.Transpose(), b)
	if !Equal(got, want, 1e-12) {
		t.Fatal("MatMulATB != Aᵀ*B")
	}
}

func TestMatMulABT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 6, 4)
	b := randMatrix(rng, 3, 4)
	got := MatMulABT(a, b)
	want := MatMul(a, b.Transpose())
	if !Equal(got, want, 1e-12) {
		t.Fatal("MatMulABT != A*Bᵀ")
	}
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(r8, k8, c8 uint8) bool {
		r, k, c := int(r8%8)+1, int(k8%8)+1, int(c8%8)+1
		a := randMatrix(rng, r, k)
		b := randMatrix(rng, k, c)
		lhs := MatMul(a, b).Transpose()
		rhs := MatMul(b.Transpose(), a.Transpose())
		return Equal(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	if !Equal(Add(a, b), FromSlice(2, 2, []float64{6, 8, 10, 12}), 0) {
		t.Fatal("Add wrong")
	}
	if !Equal(Sub(b, a), FromSlice(2, 2, []float64{4, 4, 4, 4}), 0) {
		t.Fatal("Sub wrong")
	}
	if !Equal(Mul(a, b), FromSlice(2, 2, []float64{5, 12, 21, 32}), 0) {
		t.Fatal("Mul wrong")
	}
	if !Equal(Scale(a, 2), FromSlice(2, 2, []float64{2, 4, 6, 8}), 0) {
		t.Fatal("Scale wrong")
	}
}

func TestAddInPlaceAndAXPY(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{10, 20, 30})
	AddInPlace(a, b)
	if !Equal(a, FromSlice(1, 3, []float64{11, 22, 33}), 0) {
		t.Fatal("AddInPlace wrong")
	}
	AXPY(a, -1, b)
	if !Equal(a, FromSlice(1, 3, []float64{1, 2, 3}), 1e-15) {
		t.Fatal("AXPY wrong")
	}
}

func TestAddRowVector(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	v := FromSlice(1, 3, []float64{10, 20, 30})
	got := AddRowVector(m, v)
	want := FromSlice(2, 3, []float64{11, 22, 33, 14, 25, 36})
	if !Equal(got, want, 0) {
		t.Fatal("AddRowVector wrong")
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.Sum() != 21 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.Mean() != 3.5 {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if !Equal(m.RowSums(), FromSlice(2, 1, []float64{6, 15}), 0) {
		t.Fatal("RowSums wrong")
	}
	if !Equal(m.ColSums(), FromSlice(1, 3, []float64{5, 7, 9}), 0) {
		t.Fatal("ColSums wrong")
	}
	if New(0, 0).Mean() != 0 {
		t.Fatal("empty Mean should be 0")
	}
}

func TestNorms(t *testing.T) {
	m := FromSlice(1, 2, []float64{3, -4})
	if m.FrobeniusNorm() != 5 {
		t.Fatalf("FrobeniusNorm = %v", m.FrobeniusNorm())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestDot(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{4, 5, 6})
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMatrix(rng, 6, 3)
	idx := []int{5, 0, 3, 3}
	g := GatherRows(m, idx)
	if g.Rows != 4 || g.Cols != 3 {
		t.Fatalf("gather shape %dx%d", g.Rows, g.Cols)
	}
	for i, r := range idx {
		for j := 0; j < 3; j++ {
			if g.At(i, j) != m.At(r, j) {
				t.Fatal("gather content wrong")
			}
		}
	}
	// Scatter of ones counts index multiplicity.
	ones := New(4, 3)
	ones.Fill(1)
	dst := New(6, 3)
	ScatterAddRows(dst, ones, idx)
	if dst.At(3, 0) != 2 || dst.At(0, 0) != 1 || dst.At(1, 0) != 0 {
		t.Fatalf("scatter wrong: %v", dst.Data)
	}
}

func TestConcatSliceCols(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 1, []float64{9, 10})
	c := ConcatCols(a, b)
	want := FromSlice(2, 3, []float64{1, 2, 9, 3, 4, 10})
	if !Equal(c, want, 0) {
		t.Fatal("ConcatCols wrong")
	}
	if !Equal(SliceCols(c, 0, 2), a, 0) || !Equal(SliceCols(c, 2, 3), b, 0) {
		t.Fatal("SliceCols does not invert ConcatCols")
	}
}

func TestApply(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, 4, 9})
	got := Apply(m, math.Sqrt)
	if !Equal(got, FromSlice(1, 3, []float64{1, 2, 3}), 1e-15) {
		t.Fatal("Apply wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestHasNaN(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	if m.HasNaN() {
		t.Fatal("false positive")
	}
	m.Set(0, 1, math.NaN())
	if !m.HasNaN() {
		t.Fatal("missed NaN")
	}
	m.Set(0, 1, math.Inf(1))
	if !m.HasNaN() {
		t.Fatal("missed Inf")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(New(1, 2), New(2, 1), 1) {
		t.Fatal("Equal ignored shape")
	}
}

// Property: matrix multiplication distributes over addition.
func TestMatMulDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(r8, k8, c8 uint8) bool {
		r, k, c := int(r8%6)+1, int(k8%6)+1, int(c8%6)+1
		a := randMatrix(rng, r, k)
		b := randMatrix(rng, k, c)
		d := randMatrix(rng, k, c)
		lhs := MatMul(a, Add(b, d))
		rhs := Add(MatMul(a, b), MatMul(a, d))
		return Equal(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randMatrix(rng, 128, 128)
	y := randMatrix(rng, 128, 128)
	dst := New(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y, false)
	}
}

func BenchmarkMatMul512(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randMatrix(rng, 512, 512)
	y := randMatrix(rng, 512, 512)
	dst := New(512, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y, false)
	}
}

func TestRowDotMatchesRowSumsOfMul(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	a, b := randMatrix(rng, 7, 5), randMatrix(rng, 7, 5)
	want := Mul(a, b).RowSums()
	got := RowDot(a, b)
	if !Equal(got, want, 1e-12) {
		t.Fatalf("RowDot %v want %v", got, want)
	}
}

func TestGatherColsMatchesGatherThenSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := randMatrix(rng, 6, 8)
	idx := []int{5, 0, 3, 3}
	want := SliceCols(GatherRows(m, idx), 2, 7)
	got := GatherCols(m, idx, 2, 7)
	if !Equal(got, want, 0) {
		t.Fatalf("GatherCols %v want %v", got, want)
	}
}

func TestScatterAddColsInvertsGatherCols(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := randMatrix(rng, 3, 4)
	dst := New(5, 9)
	idx := []int{4, 1, 1}
	ScatterAddCols(dst, src, idx, 3)
	for i, r := range idx {
		for j := 0; j < src.Cols; j++ {
			var want float64
			for i2, r2 := range idx {
				if r2 == r {
					want += src.At(i2, j)
				}
			}
			if math.Abs(dst.At(r, 3+j)-want) > 1e-12 {
				t.Fatalf("ScatterAddCols row %d col %d: %v want %v", i, j, dst.At(r, 3+j), want)
			}
		}
	}
	// Columns outside [3,7) stay zero.
	for i := 0; i < dst.Rows; i++ {
		for _, j := range []int{0, 1, 2, 7, 8} {
			if dst.At(i, j) != 0 {
				t.Fatalf("ScatterAddCols wrote outside slice at (%d,%d)", i, j)
			}
		}
	}
}

func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a, b := randMatrix(rng, 4, 6), randMatrix(rng, 4, 6)
	v := randMatrix(rng, 1, 6)
	check := func(name string, want *Matrix, into func(dst *Matrix)) {
		t.Helper()
		dst := New(want.Rows, want.Cols)
		into(dst)
		if !Equal(dst, want, 1e-12) {
			t.Fatalf("%s Into variant diverges", name)
		}
	}
	check("Add", Add(a, b), func(d *Matrix) { AddInto(d, a, b) })
	check("Sub", Sub(a, b), func(d *Matrix) { SubInto(d, a, b) })
	check("Mul", Mul(a, b), func(d *Matrix) { MulInto(d, a, b) })
	check("Scale", Scale(a, -2.5), func(d *Matrix) { ScaleInto(d, a, -2.5) })
	check("AddRowVector", AddRowVector(a, v), func(d *Matrix) { AddRowVectorInto(d, a, v) })
	check("Apply", Apply(a, math.Exp), func(d *Matrix) { ApplyInto(d, a, math.Exp) })
	check("RowSums", a.RowSums(), func(d *Matrix) { a.RowSumsInto(d) })
	check("GatherRows", GatherRows(a, []int{3, 0}), func(d *Matrix) { GatherRowsInto(d, a, []int{3, 0}) })
	check("SliceCols", SliceCols(a, 1, 5), func(d *Matrix) { SliceColsInto(d, a, 1, 5) })
	check("ConcatCols", ConcatCols(a, b), func(d *Matrix) { ConcatColsInto(d, a, b) })
}

func TestMatMulIntoTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a, b := randMatrix(rng, 5, 3), randMatrix(rng, 5, 4)
	want := MatMul(a.Transpose(), b)
	got := New(3, 4)
	MatMulATBInto(got, a, b, false)
	if !Equal(got, want, 1e-12) {
		t.Fatal("MatMulATBInto wrong")
	}
	MatMulATBInto(got, a, b, true)
	if !Equal(got, Scale(want, 2), 1e-12) {
		t.Fatal("MatMulATBInto accumulate wrong")
	}

	c := randMatrix(rng, 6, 3)
	d := randMatrix(rng, 2, 3)
	wantABT := MatMul(c, d.Transpose())
	gotABT := New(6, 2)
	MatMulABTInto(gotABT, c, d, false)
	if !Equal(gotABT, wantABT, 1e-12) {
		t.Fatal("MatMulABTInto wrong")
	}
	MatMulABTInto(gotABT, c, d, true)
	if !Equal(gotABT, Scale(wantABT, 2), 1e-12) {
		t.Fatal("MatMulABTInto accumulate wrong")
	}
}

func TestPoolRoundTrip(t *testing.T) {
	m := GetPooled(3, 5)
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("GetPooled not zeroed")
		}
	}
	m.Fill(7)
	PutPooled(m)
	// The next same-class request must come back zeroed even if it reuses
	// the dirtied storage.
	n := GetPooled(5, 3)
	for _, v := range n.Data {
		if v != 0 {
			t.Fatal("pooled storage not re-zeroed")
		}
	}
	PutPooled(n)
	// Non-power-of-two capacities (plain New) are silently dropped.
	PutPooled(New(3, 5))
	// Empty and nil matrices are no-ops.
	PutPooled(New(0, 0))
	PutPooled(nil)
}

func TestPoolSizeClassReuse(t *testing.T) {
	m := GetPooled(1, 100) // class 7, cap 128
	if cap(m.Data) != 128 {
		t.Fatalf("cap %d want 128", cap(m.Data))
	}
	PutPooled(m)
	n := GetPooled(1, 128) // same class, different length
	if len(n.Data) != 128 {
		t.Fatalf("len %d want 128", len(n.Data))
	}
	PutPooled(n)
}

func TestPoolUnzeroedVariant(t *testing.T) {
	m := GetPooledUnzeroed(3, 5)
	if m.Rows != 3 || m.Cols != 5 || len(m.Data) != 15 || cap(m.Data) != 16 {
		t.Fatalf("GetPooledUnzeroed(3, 5) = %dx%d len %d cap %d", m.Rows, m.Cols, len(m.Data), cap(m.Data))
	}
	m.Fill(7)
	PutPooled(m)
	// Storage handed out dirty still comes back zeroed through GetPooled.
	n := GetPooled(5, 3)
	for _, v := range n.Data {
		if v != 0 {
			t.Fatal("GetPooled returned dirty storage")
		}
	}
	PutPooled(n)
	if e := GetPooledUnzeroed(0, 4); e.Rows != 0 || e.Cols != 4 || len(e.Data) != 0 {
		t.Fatalf("GetPooledUnzeroed(0, 4) = %dx%d len %d", e.Rows, e.Cols, len(e.Data))
	}
}
