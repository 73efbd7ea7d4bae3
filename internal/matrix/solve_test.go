package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// paperFig2H returns the original FCM H of the paper's Fig. 2 worked
// example (Eq. 6).
func paperFig2H(t *testing.T) *CSR {
	t.Helper()
	h, err := NewCSR(6, 3, []Triplet{
		{Row: 0, Col: 0, Val: 1},
		{Row: 1, Col: 0, Val: 1},
		{Row: 2, Col: 0, Val: 1}, {Row: 2, Col: 1, Val: 1},
		{Row: 4, Col: 2, Val: 1},
		{Row: 5, Col: 0, Val: 1}, {Row: 5, Col: 1, Val: 1}, {Row: 5, Col: 2, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestPaperFig2WorkedExample(t *testing.T) {
	// Eq. 7: with Y' = (3,3,4,3,8,12)ᵀ the least-squares estimate is
	// X̂ = (3,1,8)ᵀ, Ŷ = (3,3,4,0,8,12)ᵀ, Δ = (0,0,0,3,0,0)ᵀ.
	h := paperFig2H(t)
	yObs := []float64{3, 3, 4, 3, 8, 12}
	x, err := SolveNormalEquations(h, yObs, LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(x, []float64{3, 1, 8}, 1e-9) {
		t.Fatalf("X̂ = %v, want (3,1,8)", x)
	}
	yHat, err := h.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(yHat, []float64{3, 3, 4, 0, 8, 12}, 1e-9) {
		t.Fatalf("Ŷ = %v", yHat)
	}
	delta, err := AbsDiff(yObs, yHat)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(delta, []float64{0, 0, 0, 3, 0, 0}, 1e-9) {
		t.Fatalf("Δ = %v, want (0,0,0,3,0,0)", delta)
	}
}

func TestCholeskyKnownSystem(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 2}, {2, 3}})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.Solve([]float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+2y=10, 2x+3y=8 -> x=1.75, y=1.5
	if !VecEqualApprox(x, []float64{1.75, 1.5}, 1e-12) {
		t.Fatalf("solve = %v", x)
	}
	if _, err := c.Solve([]float64{1}); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	b, _ := FromRows([][]float64{{1, 2, 3}})
	if _, err := NewCholesky(b); err == nil {
		t.Fatal("non-square must error")
	}
}

func TestNormalEquationsRidgeFallbackOnDuplicateColumns(t *testing.T) {
	// Two identical flow columns make HᵀH singular; the solver must
	// still return a finite estimate whose fit is exact.
	h, err := NewCSR(3, 2, []Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 0, Val: 1}, {Row: 2, Col: 1, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{6, 6, 6}
	x, err := SolveNormalEquations(h, y, LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	yHat, err := h.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(yHat, y, 1e-3) {
		t.Fatalf("ridge solution does not fit: %v", yHat)
	}
}

// randomFullRank builds a random sparse-ish tall matrix with full column
// rank (identity block on top guarantees rank).
func randomFullRank(r *rand.Rand, m, n int) *CSR {
	entries := make([]Triplet, 0, m*n/2+n)
	for j := 0; j < n; j++ {
		entries = append(entries, Triplet{Row: j, Col: j, Val: 1})
	}
	for i := n; i < m; i++ {
		for j := 0; j < n; j++ {
			if r.Float64() < 0.4 {
				entries = append(entries, Triplet{Row: i, Col: j, Val: float64(1 + r.Intn(3))})
			}
		}
	}
	h, err := NewCSR(m, n, entries)
	if err != nil {
		panic(err)
	}
	return h
}

func TestPropertyLeastSquaresResidualOrthogonal(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space:
	// Hᵀ(y - Hx̂) = 0.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		m := n + 2 + r.Intn(5)
		h := randomFullRank(r, m, n)
		y := make([]float64, m)
		for i := range y {
			y[i] = r.NormFloat64() * 5
		}
		x, err := SolveNormalEquations(h, y, LeastSquaresOptions{})
		if err != nil {
			return false
		}
		hx, _ := h.MulVec(x)
		resid := make([]float64, m)
		for i := range resid {
			resid[i] = y[i] - hx[i]
		}
		ortho, _ := h.TMulVec(resid)
		for _, v := range ortho {
			if math.Abs(v) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCGEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	h := randomFullRank(r, 6, 3)
	if _, err := solveNormalEquationsCG(h, make([]float64, 2)); err == nil {
		t.Fatal("dim mismatch must error")
	}
	x, err := solveNormalEquationsCG(h, make([]float64, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(x, make([]float64, 3), 0) {
		t.Fatalf("zero rhs must give zero solution, got %v", x)
	}
	// On a full-rank system CG reaches the normal-equations solution.
	y := make([]float64, 6)
	for i := range y {
		y[i] = r.NormFloat64() * 10
	}
	xCG, err := solveNormalEquationsCG(h, y)
	if err != nil {
		t.Fatal(err)
	}
	xNE, err := SolveNormalEquations(h, y, LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(xCG, xNE, 1e-6) {
		t.Fatalf("cg %v, normal equations %v", xCG, xNE)
	}
}

func TestNormalEquationsEdgeCases(t *testing.T) {
	h, _ := NewCSR(3, 0, nil)
	x, err := SolveNormalEquations(h, make([]float64, 3), LeastSquaresOptions{})
	if err != nil || x != nil {
		t.Fatalf("empty system: %v %v", x, err)
	}
	h2 := paperFig2H(t)
	if _, err := SolveNormalEquations(h2, make([]float64, 2), LeastSquaresOptions{}); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestResidualInColumnSpace(t *testing.T) {
	h := paperFig2H(t)
	// A vector in the column space: sum of columns.
	in := []float64{1, 1, 2, 0, 1, 3}
	ok, rel, err := ResidualInColumnSpace(h, in, 1e-8)
	if err != nil || !ok {
		t.Fatalf("in-space vector flagged out (rel=%g err=%v)", rel, err)
	}
	// The paper's Y' from Fig 2 is NOT in the column space (Δ != 0).
	out := []float64{3, 3, 4, 3, 8, 12}
	ok, rel, err = ResidualInColumnSpace(h, out, 1e-8)
	if err != nil || ok {
		t.Fatalf("out-of-space vector flagged in (rel=%g err=%v)", rel, err)
	}
	// Zero vector is trivially inside.
	ok, _, err = ResidualInColumnSpace(h, make([]float64, 6), 1e-8)
	if err != nil || !ok {
		t.Fatal("zero vector must be in space")
	}
	if _, _, err := ResidualInColumnSpace(h, make([]float64, 2), 1e-8); err == nil {
		t.Fatal("dim mismatch must error")
	}
}
