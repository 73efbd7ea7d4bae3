package matrix

import (
	"fmt"
	"math"
)

// Rank-one maintenance of a Cholesky factorization. When a single row r
// is appended to (or deleted from) H, the normal-equations matrix moves
// by ±rᵀr — a symmetric rank-one perturbation — and the factor of the
// new Gram can be obtained in O(n²) from the old one instead of the
// O(n³) refactorization. The churn subsystem uses Update/Downdate for
// small per-slice rule deltas and for masking epoch-straddling rows out
// of a prepared engine without rebuilding it.
//
// Failure model: both passes rotate columns left to right, so a bad
// pivot discovered at column k leaves columns 0..k−1 already rewritten.
// Rather than attempting a rollback, a failed pass marks the factor
// poisoned; SolveInto and any further Update/Downdate then return
// ErrFactorPoisoned. Callers (the churn manager) clone before updating
// and throw the clone away on failure, so poisoning costs nothing on
// the happy path while making accidental reuse impossible.

// Clone returns an independent copy of the factorization, so callers
// can derive an updated factor while the original keeps serving solves.
// A poisoned factor clones poisoned.
func (c *Cholesky) Clone() *Cholesky {
	return &Cholesky{n: c.n, l: c.l.Clone(), lt: c.lt.Clone(), poisoned: c.poisoned}
}

// Update rewrites the factorization of A into the factorization of
// A + xxᵀ in O(n²) using Givens rotations. x is not modified. A
// degenerate pivot (zero, negative, or NaN — e.g. from an all-masked
// column after straddle reconciliation) returns
// ErrNotPositiveDefinite and poisons the factor instead of silently
// writing ±Inf/NaN into L.
func (c *Cholesky) Update(x []float64) error { return c.rankOne(x, false) }

// Downdate rewrites the factorization of A into the factorization of
// A − xxᵀ in O(n²) using hyperbolic rotations. It fails with
// ErrNotPositiveDefinite when the result would not be positive
// definite (x carries more weight than A holds in some direction); the
// factor is poisoned in that case — later solves return
// ErrFactorPoisoned — and callers must fall back to a fresh
// factorization. x is not modified.
func (c *Cholesky) Downdate(x []float64) error { return c.rankOne(x, true) }

// rankOne is the shared column sweep. Column k of L is row k of Lᵀ, so
// the sweep reads and writes the contiguous Lᵀ row and mirrors each
// entry into L — no transpose afterwards. A column whose working entry
// is zero needs no rotation (cos = 1, sin = 0 leaves L and the working
// vector as they are) and is skipped once its pivot has passed the
// same validity check, so a sparse x costs what its fill costs: masking
// one rule row of a near-diagonal Gram touches a handful of columns.
func (c *Cholesky) rankOne(x []float64, down bool) error {
	op := "update"
	if down {
		op = "downdate"
	}
	n := c.n
	if len(x) != n {
		return fmt.Errorf("matrix: cholesky %s dim %d vs %d", op, len(x), n)
	}
	if c.poisoned {
		return ErrFactorPoisoned
	}
	work := make([]float64, n)
	copy(work, x)
	for k := 0; k < n; k++ {
		ltk := c.lt.Row(k)
		lkk, wk := ltk[k], work[k]
		var r float64
		if down {
			d := (lkk - wk) * (lkk + wk)
			if d <= 0 || math.IsNaN(d) {
				c.poisoned = true
				return fmt.Errorf("%w: downdate pivot %d = %g", ErrNotPositiveDefinite, k, d)
			}
			r = math.Sqrt(d)
		} else {
			r = math.Hypot(lkk, wk)
			if lkk <= 0 || r == 0 || math.IsNaN(r) {
				c.poisoned = true
				return fmt.Errorf("%w: update pivot %d = %g", ErrNotPositiveDefinite, k, lkk)
			}
		}
		if wk == 0 && r == lkk {
			continue
		}
		cos := r / lkk
		sin := wk / lkk
		sl := sin // the sign the rotation applies to L's column
		if down {
			sl = -sin
		}
		ltk[k] = r
		c.l.data[k*n+k] = r
		for i := k + 1; i < n; i++ {
			lik := (ltk[i] + sl*work[i]) / cos
			work[i] = cos*work[i] - sin*lik
			ltk[i] = lik
			c.l.data[i*n+k] = lik
		}
	}
	return nil
}
