package oracle

import (
	"fmt"
	"math"

	"foces/internal/matrix"
)

// LeastSquaresQR solves min ‖A x − b‖₂ via Householder QR on a dense A
// with full column rank — an independent reference for the
// normal-equations solvers the engines use.
func LeastSquaresQR(a *matrix.Dense, b []float64) ([]float64, error) {
	m, n := a.Rows(), a.Cols()
	if len(b) != m {
		return nil, fmt.Errorf("oracle: qr dims %dx%d vs %d", m, n, len(b))
	}
	if m < n {
		return nil, fmt.Errorf("oracle: qr needs m >= n, got %dx%d", m, n)
	}
	r := a.Clone()
	rhs := make([]float64, m)
	copy(rhs, b)
	for k := 0; k < n; k++ {
		// Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm += r.At(i, k) * r.At(i, k)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, fmt.Errorf("oracle: qr rank deficient at column %d", k)
		}
		if r.At(k, k) > 0 {
			norm = -norm
		}
		v := make([]float64, m-k)
		for i := k; i < m; i++ {
			v[i-k] = r.At(i, k)
		}
		v[0] -= norm
		vnorm2 := matrix.Dot(v, v)
		if vnorm2 == 0 {
			continue
		}
		// Apply the reflector to R and the RHS.
		for j := k; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += v[i-k] * r.At(i, j)
			}
			s = 2 * s / vnorm2
			for i := k; i < m; i++ {
				r.Add(i, j, -s*v[i-k])
			}
		}
		var s float64
		for i := k; i < m; i++ {
			s += v[i-k] * rhs[i]
		}
		s = 2 * s / vnorm2
		for i := k; i < m; i++ {
			rhs[i] -= s * v[i-k]
		}
	}
	// Back substitution on the upper-triangular R.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if d == 0 {
			return nil, fmt.Errorf("oracle: qr singular R at %d", i)
		}
		x[i] = s / d
	}
	return x, nil
}
