package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randomFCMCSR builds a random FCM-shaped 0/1 matrix: each row (rule)
// has a bounded number of ones (the flows it matches), plus a leading
// identity band so the columns are independent enough to keep HᵀH
// positive definite.
func randomFCMCSR(t *testing.T, rng *rand.Rand, rows, cols, maxPerRow int) *CSR {
	t.Helper()
	var entries []Triplet
	for c := 0; c < cols && c < rows; c++ {
		entries = append(entries, Triplet{Row: c, Col: c, Val: 1})
	}
	for r := 0; r < rows; r++ {
		nnz := 1 + rng.Intn(maxPerRow)
		for e := 0; e < nnz; e++ {
			entries = append(entries, Triplet{Row: r, Col: rng.Intn(cols), Val: 1})
		}
	}
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// spdDense builds a well-conditioned SPD matrix HᵀH + I from a random
// FCM.
func spdDense(t *testing.T, rng *rand.Rand, n int) *Dense {
	t.Helper()
	h := randomFCMCSR(t, rng, 3*n, n, 8)
	g := h.gramSerial()
	for i := 0; i < n; i++ {
		g.Add(i, i, 1)
	}
	return g
}

// gramSerial is the dense reference Gram mᵀm: it accumulates the outer
// product of every sparse row, in ascending row order — the order
// SymGram accumulates in too, so the two agree bit for bit.
func (m *CSR) gramSerial() *Dense {
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

// symFromDense stores the lower triangle of the symmetric dense matrix
// a as a SymSparse, keeping every non-zero entry and every diagonal
// slot.
func symFromDense(a *Dense) *SymSparse {
	n := a.Rows()
	g := &SymSparse{n: n, colPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if v := a.At(i, j); v != 0 || i == j {
				g.rowIdx = append(g.rowIdx, int32(i))
				g.val = append(g.val, v)
			}
		}
		g.colPtr[j+1] = len(g.rowIdx)
	}
	g.buildAdjacency()
	return g
}

func densesBitwiseEqual(a, b *Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// TestKernelGramDefaultPathAcrossGOMAXPROCS: the Gram every prepared
// engine assembles (SymGram) is bitwise the serial reference at any
// GOMAXPROCS.
func TestKernelGramDefaultPathAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomFCMCSR(t, rng, 400, 200, 8)
	want := m.gramSerial()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		if got := m.SymGram().toDense(); !densesBitwiseEqual(want, got) {
			t.Fatalf("default Gram differs from serial at GOMAXPROCS=%d", p)
		}
	}
}

// TestKernelBlockedCholeskyWorkerCountInvariant: a Gram that fills in
// is factored as wide dense supernode blocks, and that blocked factor
// is bitwise the same whatever number of workers the runtime offers.
func TestKernelBlockedCholeskyWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := symFromDense(spdDense(t, rng, 200))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	base, err := NewSparseCholesky(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 9} {
		runtime.GOMAXPROCS(w)
		c, err := NewSparseCholesky(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.val) != len(base.val) {
			t.Fatalf("factor size differs between 1 and %d workers: %d vs %d", w, len(base.val), len(c.val))
		}
		for i, v := range c.val {
			if math.Float64bits(v) != math.Float64bits(base.val[i]) {
				t.Fatalf("blocked factor entry %d differs between 1 and %d workers", i, w)
			}
		}
	}
}

// TestKernelCholeskyPivotFailureIdentical: a matrix whose pivot p is
// the first non-positive one under any elimination order is refused by
// the dense reference sweep and by the sparse factor alike, and both
// name column p — the sparse factor in its permuted order, which its
// symbolic analysis maps back to p.
func TestKernelCholeskyPivotFailureIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 180
	a := spdDense(t, rng, n)
	for _, p := range []int{0, 37, 64, 150, n - 1} {
		bad := a.Clone()
		// Sinking the diagonal far below its row's Schur complement makes
		// pivot p the first non-positive one for any factorization order.
		bad.Set(p, p, -1e6)
		_, errD := NewCholesky(bad)
		g := symFromDense(bad)
		sym := analyzeSparse(g)
		_, errS := newSparseCholeskyWith(g, sym)
		for name, err := range map[string]error{"dense": errD, "sparse": errS} {
			if !errors.Is(err, ErrNotPositiveDefinite) {
				t.Fatalf("pivot %d: %s err = %v", p, name, err)
			}
		}
		var jd, js int
		var vd, vs float64
		if _, err := fmt.Sscanf(errD.Error(), "matrix: not positive definite: pivot %d = %g", &jd, &vd); err != nil {
			t.Fatalf("parse dense error %q: %v", errD, err)
		}
		if _, err := fmt.Sscanf(errS.Error(), "matrix: not positive definite: pivot %d = %g", &js, &vs); err != nil {
			t.Fatalf("parse sparse error %q: %v", errS, err)
		}
		if jd != p || int(sym.perm[js]) != p {
			t.Fatalf("pivot columns: dense %d, sparse %d (original column %d), want %d", jd, js, sym.perm[js], p)
		}
	}
}

func TestKernelFanOutCoversAllIndices(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{0, 1, 7, 100} {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			seen := make([]int32, n)
			FanOut(n, func(i int) { seen[i]++ })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d GOMAXPROCS=%d: index %d visited %d times", n, procs, i, c)
				}
			}
		}
	}
}

func TestKernelPreparedStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	h := randomFCMCSR(t, rng, 200, 100, 6)
	p, err := PrepareLS(h, LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Gram < 0 || s.Factor < 0 {
		t.Fatalf("negative prepare stats: %+v", s)
	}
	if s.Gram == 0 && s.Factor == 0 {
		t.Fatalf("prepare stats all zero: %+v", s)
	}
}

// toDense scatters the symmetric matrix to dense form.
func (g *SymSparse) toDense() *Dense {
	d := NewDense(g.n, g.n)
	for j := 0; j < g.n; j++ {
		for p := g.colPtr[j]; p < g.colPtr[j+1]; p++ {
			i := int(g.rowIdx[p])
			v := g.val[p]
			d.Set(i, j, v)
			if i != j {
				d.Set(j, i, v)
			}
		}
	}
	return d
}
