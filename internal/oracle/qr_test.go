package oracle

import (
	"math/rand"
	"testing"
	"testing/quick"

	"foces/internal/matrix"
)

// randomFullRank builds an m x n matrix with small positive integer
// entries and an identity band, so it has full column rank.
func randomFullRank(r *rand.Rand, m, n int) *matrix.CSR {
	var entries []matrix.Triplet
	for j := 0; j < n; j++ {
		entries = append(entries, matrix.Triplet{Row: j, Col: j, Val: 1})
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if r.Float64() < 0.4 {
				entries = append(entries, matrix.Triplet{Row: i, Col: j, Val: float64(1 + r.Intn(3))})
			}
		}
	}
	h, err := matrix.NewCSR(m, n, entries)
	if err != nil {
		panic(err)
	}
	return h
}

func TestPropertySolversAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5)
		m := n + 2 + r.Intn(6)
		h := randomFullRank(r, m, n)
		y := make([]float64, m)
		for i := range y {
			y[i] = r.NormFloat64() * 10
		}
		xNE, err := matrix.SolveNormalEquations(h, y, matrix.LeastSquaresOptions{})
		if err != nil {
			return false
		}
		xQR, err := LeastSquaresQR(h.ToDense(), y)
		if err != nil {
			return false
		}
		return matrix.VecEqualApprox(xNE, xQR, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQRValidation(t *testing.T) {
	a, _ := matrix.FromRows([][]float64{{1, 0}, {0, 1}})
	if _, err := LeastSquaresQR(a, []float64{1}); err == nil {
		t.Fatal("dim mismatch must error")
	}
	wide, _ := matrix.FromRows([][]float64{{1, 0, 0}})
	if _, err := LeastSquaresQR(wide, []float64{1}); err == nil {
		t.Fatal("wide matrix must error")
	}
	rankDef, _ := matrix.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
	if _, err := LeastSquaresQR(rankDef, []float64{1, 1, 1}); err == nil {
		t.Fatal("rank-deficient matrix must error")
	}
}
