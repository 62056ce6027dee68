package core

import "math"

// This file holds the scalar arithmetic kernels of the opt-in fast scoring
// path (Config.FastScoring): an exp approximation with a documented
// relative error bound and reassociated multi-chain rank-32 dot kernels.
// None of it runs unless the caller explicitly chose PredictFusedBatchFast
// — the exact kernels in infer.go/fused.go are untouched. On amd64 with
// AVX2+FMA the span loops dispatch to the vector twins in
// fastasm_amd64.s; these scalar forms are the everywhere-fallback and the
// reference the vector kernels are tested against.
//
// Deliberately no math.FMA anywhere: under the default GOAMD64=v1 the
// compiler cannot assume FMA3 and lowers every math.FMA call to a feature
// test plus a function-call fallback, which benchmarks slower than plain
// mul+add on this code (see BenchmarkSpanDotStrategies). Hardware FMA is
// used only in the runtime-dispatched assembly kernels.

// FastExpMaxRelErr bounds |ExpFast(x) − exp(x)| / exp(x) for all finite x
// in the reduced range (|x| ≤ 708; outside it ExpFast defers to math.Exp,
// so the bound holds everywhere). The vectorized expSpanAVX2 shares the
// algorithm and the bound (its FMA contraction only removes roundings).
//
// Derivation: ExpFast computes exp(x) = 2^k · exp(r) with k = round(x·log₂e)
// and r = x − k·ln2 reduced Cody–Waite style, |r| ≤ ln2/2 ≈ 0.34658.
//
//   - Reduction: ln2Hi carries the top 40 bits of ln2, so k·ln2Hi is exact
//     for |k| ≤ 2^10 and subtracting it cancels exactly; the ln2Lo
//     correction leaves a residual of |k|·|ln2 − ln2Hi − ln2Lo| ≤
//     2^10·1.7e-27 ≈ 1.8e-24 — negligible — plus two roundings of the
//     correction term (≤ 2^-52·|r|).
//   - Polynomial: the degree-10 Taylor series of exp on [−ln2/2, ln2/2]
//     truncates at |r|^11/11! ≤ 0.34658^11/39916800 ≈ 2.2e-13, i.e. a
//     relative error ≤ 2.2e-13/exp(−ln2/2) ≈ 3.1e-13. The ten Horner
//     steps each round a multiply and an add, ≤ 20·2^-53 ≈ 2.3e-15
//     relative in total.
//   - Scaling by 2^k is an exact exponent-field add (k keeps the result
//     normal in the guarded range).
//
// Total ≤ 3.2e-13 relative; 1e-12 (≈ 2^12.2 ulp of a float64) is the
// documented bound, leaving a 3x margin, and TestExpFastErrorBound
// measures both the scalar and vector kernels against math.Exp over a
// dense sweep of the reduced range.
const FastExpMaxRelErr = 1e-12

const (
	expLog2E = 1.44269504088896338700e+00 // log₂e
	expLn2Hi = 6.93147180369123816490e-01 // high 40 bits of ln2
	expLn2Lo = 1.90821492927058770002e-10 // ln2 − expLn2Hi
	// expRound shifts a float64 so its integer part lands in the low
	// mantissa bits: adding and subtracting it rounds to nearest even
	// without a math.Round call, for |v| < 2^51.
	expRound = 1.5 / 0x1p-52
)

// Taylor coefficients 1/n! for the degree-10 polynomial.
const (
	expC2  = 1.0 / 2
	expC3  = 1.0 / 6
	expC4  = 1.0 / 24
	expC5  = 1.0 / 120
	expC6  = 1.0 / 720
	expC7  = 1.0 / 5040
	expC8  = 1.0 / 40320
	expC9  = 1.0 / 362880
	expC10 = 1.0 / 3628800
)

// ExpFast approximates math.Exp within FastExpMaxRelErr relative error.
// Arguments outside [−708, 708] — including NaN and ±Inf, and every input
// whose exact exp overflows or goes subnormal — take the math.Exp path,
// so special-value behavior is identical to the exact kernel; only the
// well-scaled interior pays the (branch-predictable) fast path.
func ExpFast(x float64) float64 {
	if !(x >= -708 && x <= 708) {
		return math.Exp(x)
	}
	kf := (x*expLog2E + expRound) - expRound
	r := x - kf*expLn2Hi // exact: kf·ln2Hi has ≥ 12 trailing zero bits
	r -= kf * expLn2Lo
	p := expC10
	p = p*r + expC9
	p = p*r + expC8
	p = p*r + expC7
	p = p*r + expC6
	p = p*r + expC5
	p = p*r + expC4
	p = p*r + expC3
	p = p*r + expC2
	p = p*r + 1
	p = p*r + 1
	return p * math.Float64frombits(uint64(1023+int64(kf))<<52)
}

// expSpan exponentiates v in place within FastExpMaxRelErr. The vector
// kernel guards its own lanes and stops at the first group holding a
// value outside ExpFast's range — a +Inf conformal offset marking a span
// infeasible is the common case — so the scalar loop (whose guard defers
// to math.Exp exactly like the exact kernel) finishes whatever remains.
func expSpan(v []float64) {
	i := 0
	if useFastVec && len(v) >= 4 {
		i = expSpanAVX2(&v[0], len(v))
	}
	for ; i < len(v); i++ {
		v[i] = ExpFast(v[i])
	}
}
