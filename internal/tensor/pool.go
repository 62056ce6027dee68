package tensor

import (
	"math/bits"
	"sync"
)

// The matrix pool recycles backing slices for the short-lived matrices the
// autodiff engine allocates every training step (op outputs, gradients,
// scratch). Slices are kept in power-of-two size classes so a request can be
// served by any previously released slice of the same class.
//
// GetPooled always returns zeroed storage, so callers may rely on the same
// invariant New provides; GetPooledUnzeroed skips the clear for callers
// that overwrite every element anyway. PutPooled is optional: storage that
// is never returned is simply collected by the GC.

// maxPoolClass bounds pooled slices at 1<<maxPoolClass floats (512 MiB);
// anything larger is allocated and freed normally.
const maxPoolClass = 26

var pools [maxPoolClass + 1]sync.Pool

// sizeClass returns the pool class for n floats: the smallest k with
// 1<<k >= n.
func sizeClass(n int) int {
	return bits.Len(uint(n - 1))
}

// GetPooled returns a zeroed rows x cols matrix, reusing pooled storage when
// available. Release it with PutPooled once no longer referenced.
func GetPooled(rows, cols int) *Matrix { return getPooled(rows, cols, true) }

// GetPooledUnzeroed is GetPooled without the clear: reused storage keeps
// whatever its previous owner left in it. Only for a caller that writes
// every element before reading any, such as an op output filled in full
// by an Into kernel.
func GetPooledUnzeroed(rows, cols int) *Matrix { return getPooled(rows, cols, false) }

func getPooled(rows, cols int, zero bool) *Matrix {
	n := rows * cols
	if n <= 0 {
		return New(rows, cols)
	}
	class := sizeClass(n)
	if class > maxPoolClass {
		return New(rows, cols)
	}
	if v := pools[class].Get(); v != nil {
		buf := *(v.(*[]float64))
		data := buf[:n]
		if zero {
			clear(data)
		}
		return &Matrix{Rows: rows, Cols: cols, Data: data}
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n, 1<<class)}
}

// PutPooled returns m's backing storage to the pool. m (and any matrix
// sharing its storage) must not be used afterwards. Matrices whose capacity
// is not a pool size class (e.g. built by New or FromSlice) are dropped for
// the GC to collect.
func PutPooled(m *Matrix) {
	if m == nil {
		return
	}
	c := cap(m.Data)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	class := bits.Len(uint(c)) - 1
	if class > maxPoolClass {
		return
	}
	buf := m.Data[:c]
	pools[class].Put(&buf)
	m.Data = nil
}
