package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSPD builds A = BᵀB + I for a random B, guaranteeing a
// well-conditioned SPD matrix with a full pattern, so a rank-one
// update by any vector needs no fill.
func randomSPD(rng *rand.Rand, n int) *Dense {
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := b.Gram()
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	return a
}

// plusOuter returns a + s·xxᵀ.
func plusOuter(a *Dense, x []float64, s float64) *Dense {
	out := a.Clone()
	for i := range x {
		for j := range x {
			out.Add(i, j, s*x[i]*x[j])
		}
	}
	return out
}

// sparseFactor factors the dense SPD matrix a with the sparse Cholesky.
func sparseFactor(t *testing.T, a *Dense) *SparseCholesky {
	t.Helper()
	c, err := NewSparseCholesky(symFromDense(a))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// factorEqualApprox requires two sparse factors over the same symbolic
// pattern to agree entry by entry within tol.
func factorEqualApprox(t *testing.T, got, want *SparseCholesky, tol float64) {
	t.Helper()
	if got.N() != want.N() || len(got.val) != len(want.val) {
		t.Fatalf("factor shapes %d/%d vs %d/%d", got.N(), len(got.val), want.N(), len(want.val))
	}
	for i, p := range got.sym.perm {
		if want.sym.perm[i] != p {
			t.Fatalf("factors use different orderings")
		}
	}
	for i, v := range got.val {
		if math.Abs(v-want.val[i]) > tol {
			t.Fatalf("factor entry %d: %v vs %v (tol %g)", i, v, want.val[i], tol)
		}
	}
}

func TestCholeskyUpdateMatchesRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 12, 30} {
		a := randomSPD(rng, n)
		chol := sparseFactor(t, a)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		up := chol.Clone()
		if err := up.Update(x); err != nil {
			t.Fatalf("n=%d update: %v", n, err)
		}
		// Reference: factor A + xxᵀ from scratch.
		factorEqualApprox(t, up, sparseFactor(t, plusOuter(a, x, 1)), 1e-9)
		// The original factor must be untouched by Clone+Update.
		factorEqualApprox(t, chol, sparseFactor(t, a), 0)
	}
}

func TestCholeskyDowndateMatchesRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 12, 30} {
		a := randomSPD(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// Downdate is only defined when A − xxᵀ stays PD; build A as
		// base + xxᵀ so removal is exact.
		down := sparseFactor(t, plusOuter(a, x, 1))
		if err := down.Downdate(x); err != nil {
			t.Fatalf("n=%d downdate: %v", n, err)
		}
		factorEqualApprox(t, down, sparseFactor(t, a), 1e-8)
	}
}

func TestCholeskyDowndateNotPD(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	chol := sparseFactor(t, a)
	err := chol.Downdate([]float64{2, 0}) // I − xxᵀ has a −3 eigenvalue
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholeskyUpdateSolveAgrees(t *testing.T) {
	// End-to-end: solve (A + xxᵀ) z = b via the updated factor and
	// compare against the dense reference factorization's solution.
	rng := rand.New(rand.NewSource(3))
	n := 20
	a := randomSPD(rng, n)
	up := sparseFactor(t, a)
	x := make([]float64, n)
	b := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	if err := up.Update(x); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, n)
	if err := up.SolveInto(got, b, make([]float64, n)); err != nil {
		t.Fatal(err)
	}
	want, err := NewCholesky(plusOuter(a, x, 1))
	if err != nil {
		t.Fatal(err)
	}
	wz, err := want.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(got, wz, 1e-9) {
		t.Fatalf("solve mismatch:\ngot  %v\nwant %v", got, wz)
	}
}

func TestCholeskyUpdateDimMismatch(t *testing.T) {
	chol := sparseFactor(t, randomSPD(rand.New(rand.NewSource(1)), 3))
	if err := chol.Update([]float64{1, 2}); err == nil {
		t.Fatal("update accepted wrong-length vector")
	}
	if err := chol.Downdate([]float64{1, 2, 3, 4}); err == nil {
		t.Fatal("downdate accepted wrong-length vector")
	}
}

func TestCholeskyUpdateDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	chol := sparseFactor(t, randomSPD(rng, 6))
	x := []float64{1, -2, 3, 0.5, -0.25, 4}
	saved := append([]float64(nil), x...)
	if err := chol.Update(x); err != nil {
		t.Fatal(err)
	}
	if err := chol.Downdate(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != saved[i] {
			t.Fatalf("input mutated at %d: %g vs %g", i, x[i], saved[i])
		}
	}
}

func TestNewPreparedLSFromFactor(t *testing.T) {
	// Build H, prepare it, then rebuild an engine from a cloned factor
	// and check identical solves; a dimension mismatch must error.
	rows := [][]float64{{1, 0}, {1, 1}, {0, 1}, {1, 1}}
	var trips []Triplet
	for i, r := range rows {
		for j, v := range r {
			if v != 0 {
				trips = append(trips, Triplet{Row: i, Col: j, Val: v})
			}
		}
	}
	csr, err := NewCSR(4, 2, trips)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PrepareLS(csr, LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewPreparedLSFromUpdatable(csr, p.CloneFactor(), p.Ridge())
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{3, 7, 4, 7}
	a, err := p.Solve(y)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Solve(y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] || math.IsNaN(a[i]) {
			t.Fatalf("solve mismatch at %d: %v vs %v", i, a[i], b[i])
		}
	}
	bad, err := NewCSR(4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPreparedLSFromUpdatable(bad, p.CloneFactor(), 0); err == nil {
		t.Fatal("accepted mismatched factor dimension")
	}
}
