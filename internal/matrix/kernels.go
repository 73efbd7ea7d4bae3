package matrix

// Parallel, cache-blocked kernels for the heavy baseline-preparation
// linear algebra: sparse Gram assembly (HᵀH), and blocked right-looking
// Cholesky. The kernels are exact
// drop-in replacements for the serial reference paths:
//
//   - parallel Gram is bitwise identical to GramSerial for any worker
//     count, because every output entry is accumulated by exactly one
//     worker in the same (ascending input-row) order the serial loop
//     uses, and the mirrored lower triangle copies the upper triangle
//     (va*vb and vb*va are the same float64);
//   - blocked Cholesky is dispatched purely by matrix size (never by
//     worker count), so a given matrix always takes the same code path
//     on every machine and the factor is bitwise reproducible across
//     GOMAXPROCS settings; it agrees with the unblocked sweep to
//     floating-point roundoff and reports the identical first
//     non-positive pivot on failure.
//
// Package-wide defaults are configured with SetKernelDefaults; zero
// fields in a KernelOptions value inherit those defaults.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// KernelOptions tunes the parallel kernels. The zero value inherits the
// package defaults (see SetKernelDefaults); a zero default resolves to
// Workers = GOMAXPROCS and BlockSize = 64.
type KernelOptions struct {
	// Workers caps the number of goroutines (including the caller) used
	// by a kernel invocation. 0 inherits the package default; the
	// default of the default is runtime.GOMAXPROCS(0).
	Workers int
	// BlockSize is the Cholesky panel width. 0 inherits the package
	// default (64). Matrices smaller than 2×BlockSize use the unblocked
	// sweep. BlockSize — not Workers — decides blocked-vs-unblocked
	// dispatch so results never depend on core count.
	BlockSize int
	// Serial forces the serial reference kernels regardless of Workers,
	// for benchmarking and equivalence testing.
	Serial bool
	// Sparse selects the normal-equations factorization backend used by
	// PrepareLS: SparseAuto (chosen from the structure of the Gram),
	// SparseAlways, or SparseNever. The zero value (SparseAuto) inherits
	// the package default.
	Sparse SparseMode
}

// SparseMode selects the PrepareLS factorization backend. PrepareLS
// always assembles the Gram it factors in sparse form; the mode decides
// only whether that Gram is factored sparsely or scattered to dense.
type SparseMode int

const (
	// SparseAuto factors sparsely when the assembled Gram's density is
	// at or below a fixed 12.5%, whatever its size: a diagonal Gram of 8
	// or more columns goes sparse, a Gram that fills in goes dense.
	SparseAuto SparseMode = iota
	// SparseAlways forces the sparse direct path.
	SparseAlways
	// SparseNever forces the dense path.
	SparseNever
)

func (m SparseMode) String() string {
	switch m {
	case SparseAlways:
		return "sparse"
	case SparseNever:
		return "dense"
	default:
		return "auto"
	}
}

const defaultBlockSize = 64

// kernelDefaults holds the package-wide KernelOptions. Access is atomic
// so tests and daemons may flip defaults without racing hot paths.
var kernelDefaults atomic.Pointer[KernelOptions]

// SetKernelDefaults replaces the package-wide kernel defaults and
// returns the previous value, so callers can restore it:
//
//	prev := matrix.SetKernelDefaults(matrix.KernelOptions{Serial: true})
//	defer matrix.SetKernelDefaults(prev)
func SetKernelDefaults(o KernelOptions) KernelOptions {
	prev := kernelDefaults.Swap(&o)
	if prev == nil {
		return KernelOptions{}
	}
	return *prev
}

// KernelDefaults returns the current package-wide kernel defaults.
func KernelDefaults() KernelOptions {
	if p := kernelDefaults.Load(); p != nil {
		return *p
	}
	return KernelOptions{}
}

// resolveKernel fills zero fields of o from the package defaults and
// then from the hard-coded fallbacks.
func resolveKernel(o KernelOptions) (workers, blockSize int, serial bool) {
	d := KernelDefaults()
	serial = o.Serial || d.Serial
	workers = o.Workers
	if workers == 0 {
		workers = d.Workers
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	blockSize = o.BlockSize
	if blockSize == 0 {
		blockSize = d.BlockSize
	}
	if blockSize <= 0 {
		blockSize = defaultBlockSize
	}
	return workers, blockSize, serial
}

// KernelWorkers reports the worker count the default kernel options
// resolve to (≥1). core and churn use it to size construction-time
// fan-outs so one knob governs all preparation parallelism.
func KernelWorkers() int {
	w, _, serial := resolveKernel(KernelOptions{})
	if serial {
		return 1
	}
	return w
}

// parallelRanges splits [0, n) into contiguous chunks of about grain
// elements and runs fn(lo, hi) on up to workers goroutines, with the
// caller participating. It returns after every chunk has completed.
// Chunks are claimed dynamically so uneven per-range cost (e.g. the
// triangular trailing update) still balances.
func parallelRanges(n, workers, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if workers > (n+grain-1)/grain {
		workers = (n + grain - 1) / grain
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// FanOut runs fn(i) for every i in [0, n) across up to workers
// goroutines (caller included). It is a construction-phase helper for
// fanning independent slice-engine builds; per-index order within a
// worker is ascending but cross-worker order is unspecified, so fn must
// write only to index-owned state.
func FanOut(n, workers int, fn func(i int)) {
	parallelRanges(n, workers, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// minParallelGramCols gates the parallel Gram path: below this many
// output columns the CSC index build costs more than it saves.
const minParallelGramCols = 96

// GramOpts computes mᵀ*m like Gram with explicit kernel options.
func (m *CSR) GramOpts(o KernelOptions) *Dense {
	workers, _, serial := resolveKernel(o)
	if serial || workers <= 1 || m.cols < minParallelGramCols || len(m.val) == 0 {
		return m.GramSerial()
	}
	return m.gramParallel(workers)
}

// GramSerial is the serial reference Gram kernel: it accumulates the
// outer product of every sparse row. Cost is Σᵢ nnz(rowᵢ)², which is
// small for FCMs because a rule matches a bounded number of flows.
func (m *CSR) GramSerial() *Dense {
	g := NewDense(m.cols, m.cols)
	for i := 0; i < m.rows; i++ {
		lo, hi := m.rowPtr[i], m.rowPtr[i+1]
		for a := lo; a < hi; a++ {
			ca, va := m.colIdx[a], m.val[a]
			grow := g.Row(ca)
			for b := lo; b < hi; b++ {
				grow[m.colIdx[b]] += va * m.val[b]
			}
		}
	}
	return g
}

// gramParallel partitions the Gram rows (= H columns) across workers.
// A transient ColumnIndex maps each output row ca to the CSR entry
// positions holding column ca, so the worker owning ca can replay, in
// ascending input-row order, exactly the accumulations the serial loop
// performs into g.Row(ca) — restricted to the upper triangle cb ≥ ca,
// which within an input row is just the entries at positions ≥ the
// position of ca. A second pass mirrors the upper triangle, partitioned
// by destination row. Both passes write disjoint row ranges, and the
// per-entry accumulation order matches GramSerial, so the result is
// bitwise identical for any worker count.
func (m *CSR) gramParallel(workers int) *Dense {
	g := NewDense(m.cols, m.cols)
	ix := NewColumnIndex(m)
	grain := gramGrain(m.cols, workers)
	// Pass 1: upper triangle, each worker owns a range of output rows.
	parallelRanges(m.cols, workers, grain, func(lo, hi int) {
		for ca := lo; ca < hi; ca++ {
			grow := g.Row(ca)
			for p := ix.colPtr[ca]; p < ix.colPtr[ca+1]; p++ {
				k := int(ix.pos[p])
				va := m.val[k]
				end := int(ix.end[p])
				for q := k; q < end; q++ {
					grow[m.colIdx[q]] += va * m.val[q]
				}
			}
		}
	})
	// Pass 2: mirror the strict upper triangle, owned by destination row.
	parallelRanges(m.cols, workers, grain, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			rowj := g.Row(j)
			for i := 0; i < j; i++ {
				rowj[i] = g.Row(i)[j]
			}
		}
	})
	return g
}

func gramGrain(n, workers int) int {
	g := n / (workers * 8)
	if g < 8 {
		g = 8
	}
	return g
}

// NewCholeskyOpts factors a like NewCholesky with explicit kernel
// options.
func NewCholeskyOpts(a *Dense, o KernelOptions) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("matrix: cholesky needs square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	workers, blockSize, serial := resolveKernel(o)
	if serial || a.Rows() < 2*blockSize {
		return newCholeskyUnblocked(a)
	}
	return newCholeskyBlocked(a, blockSize, workers)
}

// newCholeskyBlocked is the right-looking blocked factorization: for
// each panel [kb, ke) it (1) factors the diagonal block with the
// unblocked sweep, (2) solves the sub-diagonal panel rows against the
// block's triangle, and (3) applies the symmetric rank-k trailing
// update, with steps 2–3 fanned across workers by trailing-row range.
// Each trailing row is updated by exactly one worker with a fixed
// per-entry reduction order, so the factor is bitwise reproducible for
// any worker count (though it differs from the unblocked sweep by
// roundoff, since partial sums are grouped per panel).
func newCholeskyBlocked(a *Dense, blockSize, workers int) (*Cholesky, error) {
	n := a.Rows()
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		copy(l.Row(i)[:i+1], a.Row(i)[:i+1])
	}
	for kb := 0; kb < n; kb += blockSize {
		ke := kb + blockSize
		if ke > n {
			ke = n
		}
		// Diagonal block factor. Contributions from columns < kb were
		// already subtracted by earlier trailing updates, so only
		// within-panel columns participate here.
		for j := kb; j < ke; j++ {
			ljRow := l.Row(j)
			diag := ljRow[j]
			for k := kb; k < j; k++ {
				diag -= ljRow[k] * ljRow[k]
			}
			if diag <= 0 || math.IsNaN(diag) {
				return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotPositiveDefinite, j, diag)
			}
			d := math.Sqrt(diag)
			ljRow[j] = d
			for i := j + 1; i < ke; i++ {
				liRow := l.Row(i)
				s := liRow[j]
				for k := kb; k < j; k++ {
					s -= liRow[k] * ljRow[k]
				}
				liRow[j] = s / d
			}
		}
		if ke == n {
			break
		}
		// Panel solve: rows ke..n against the diagonal block's triangle
		// (reads finalized panel rows, writes only the owned row).
		parallelRanges(n-ke, workers, 16, func(lo, hi int) {
			for i := ke + lo; i < ke+hi; i++ {
				liRow := l.Row(i)
				for j := kb; j < ke; j++ {
					ljRow := l.Row(j)
					s := liRow[j]
					for k := kb; k < j; k++ {
						s -= liRow[k] * ljRow[k]
					}
					liRow[j] = s / ljRow[j]
				}
			}
		})
		// Symmetric rank-k trailing update of the lower triangle:
		// l[i][j] -= Σ_{k∈panel} l[i][k]·l[j][k] for ke ≤ j ≤ i. Reads
		// touch only panel columns (not written here); writes touch only
		// the owned row's trailing columns.
		parallelRanges(n-ke, workers, 8, func(lo, hi int) {
			for i := ke + lo; i < ke+hi; i++ {
				liRow := l.Row(i)
				panelI := liRow[kb:ke]
				for j := ke; j <= i; j++ {
					panelJ := l.Row(j)[kb:ke]
					var s float64
					for k, v := range panelI {
						s += v * panelJ[k]
					}
					liRow[j] -= s
				}
			}
		})
	}
	return &Cholesky{n: n, l: l, lt: l.Transpose()}, nil
}
