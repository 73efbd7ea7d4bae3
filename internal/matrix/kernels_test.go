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
	g := h.GramSerial()
	for i := 0; i < n; i++ {
		g.Add(i, i, 1)
	}
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

func maxAbsDense(a *Dense) float64 {
	m := 0.0
	for i := 0; i < a.Rows(); i++ {
		for _, v := range a.Row(i) {
			if av := math.Abs(v); av > m {
				m = av
			}
		}
	}
	return m
}

func TestKernelGramParallelMatchesSerialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := []struct{ rows, cols, per int }{
		{1, 1, 1},
		{40, 17, 4},
		{300, 150, 6},
		{500, 260, 12},
	}
	for _, sh := range shapes {
		m := randomFCMCSR(t, rng, sh.rows, sh.cols, sh.per)
		want := m.GramSerial()
		for _, w := range []int{1, 2, 3, 8} {
			got := m.GramOpts(KernelOptions{Workers: w})
			if !densesBitwiseEqual(want, got) {
				t.Fatalf("gram %dx%d workers=%d differs from serial", sh.rows, sh.cols, w)
			}
		}
		if got := m.GramOpts(KernelOptions{Serial: true}); !densesBitwiseEqual(want, got) {
			t.Fatalf("gram %dx%d serial option differs", sh.rows, sh.cols)
		}
	}
}

func TestKernelGramDefaultPathAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomFCMCSR(t, rng, 400, 200, 8)
	want := m.GramSerial()
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, p := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(p)
		if got := m.Gram(); !densesBitwiseEqual(want, got) {
			t.Fatalf("default Gram differs from serial at GOMAXPROCS=%d", p)
		}
	}
}

func TestKernelBlockedCholeskyMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{130, 200, 257} {
		a := spdDense(t, rng, n)
		ref, err := newCholeskyUnblocked(a)
		if err != nil {
			t.Fatalf("n=%d unblocked: %v", n, err)
		}
		tol := 1e-12 * (1 + maxAbsDense(a))
		for _, bs := range []int{16, 32, 64, 100} {
			for _, w := range []int{1, 2, 5} {
				c, err := NewCholeskyOpts(a, KernelOptions{BlockSize: bs, Workers: w})
				if err != nil {
					t.Fatalf("n=%d bs=%d w=%d: %v", n, bs, w, err)
				}
				for i := 0; i < n; i++ {
					lr, lb := ref.l.Row(i), c.l.Row(i)
					for j := 0; j <= i; j++ {
						if d := math.Abs(lr[j] - lb[j]); d > tol {
							t.Fatalf("n=%d bs=%d w=%d: L[%d][%d] off by %g (tol %g)", n, bs, w, i, j, d, tol)
						}
					}
				}
			}
		}
	}
}

func TestKernelBlockedCholeskyWorkerCountInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := spdDense(t, rng, 200)
	base, err := NewCholeskyOpts(a, KernelOptions{BlockSize: 32, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 9} {
		c, err := NewCholeskyOpts(a, KernelOptions{BlockSize: 32, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !densesBitwiseEqual(base.l, c.l) {
			t.Fatalf("blocked factor differs between 1 and %d workers", w)
		}
	}
}

func TestKernelCholeskyPivotFailureIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 180
	a := spdDense(t, rng, n)
	for _, p := range []int{0, 37, 64, 150, n - 1} {
		bad := a.Clone()
		// Sinking the diagonal far below its row's Schur complement makes
		// pivot p the first non-positive one for any factorization order.
		bad.Set(p, p, -1e6)
		_, errU := NewCholeskyOpts(bad, KernelOptions{Serial: true})
		if !errors.Is(errU, ErrNotPositiveDefinite) {
			t.Fatalf("pivot %d: unblocked err = %v", p, errU)
		}
		for _, w := range []int{1, 3} {
			_, errB := NewCholeskyOpts(bad, KernelOptions{BlockSize: 32, Workers: w})
			if !errors.Is(errB, ErrNotPositiveDefinite) {
				t.Fatalf("pivot %d workers=%d: blocked err = %v", p, w, errB)
			}
			var ju, jb int
			var vu, vb float64
			if _, err := fmt.Sscanf(errU.Error(), "matrix: not positive definite: pivot %d = %g", &ju, &vu); err != nil {
				t.Fatalf("parse unblocked error %q: %v", errU, err)
			}
			if _, err := fmt.Sscanf(errB.Error(), "matrix: not positive definite: pivot %d = %g", &jb, &vb); err != nil {
				t.Fatalf("parse blocked error %q: %v", errB, err)
			}
			if ju != p || jb != p {
				t.Fatalf("pivot indices: unblocked %d, blocked %d, want %d", ju, jb, p)
			}
		}
		// Worker count must not change the reported error at all.
		_, e1 := NewCholeskyOpts(bad, KernelOptions{BlockSize: 32, Workers: 1})
		_, e8 := NewCholeskyOpts(bad, KernelOptions{BlockSize: 32, Workers: 8})
		if e1.Error() != e8.Error() {
			t.Fatalf("pivot error differs across workers: %q vs %q", e1, e8)
		}
	}
}

func TestKernelDefaultsRoundTrip(t *testing.T) {
	prev := SetKernelDefaults(KernelOptions{Workers: 3, BlockSize: 48})
	defer SetKernelDefaults(prev)
	got := KernelDefaults()
	if got.Workers != 3 || got.BlockSize != 48 || got.Serial {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if w := KernelWorkers(); w != 3 {
		t.Fatalf("KernelWorkers = %d, want 3", w)
	}
	if back := SetKernelDefaults(KernelOptions{Serial: true}); back.Workers != 3 {
		t.Fatalf("SetKernelDefaults returned %+v, want previous", back)
	}
	if w := KernelWorkers(); w != 1 {
		t.Fatalf("KernelWorkers under Serial = %d, want 1", w)
	}
	SetKernelDefaults(KernelOptions{Workers: 3, BlockSize: 48})
}

func TestKernelFanOutCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, w := range []int{1, 4} {
			seen := make([]int32, n)
			FanOut(n, w, func(i int) { seen[i]++ })
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, c)
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
