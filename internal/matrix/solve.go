package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when Cholesky factorization fails;
// for FCM normal equations this means the flow columns are linearly
// dependent.
var ErrNotPositiveDefinite = errors.New("matrix: not positive definite")

// ErrFactorPoisoned is returned by solves and further rank-one
// maintenance on a factor that a failed Update/Downdate left in an
// inconsistent state. A failed rank-one pass may have rotated a prefix
// of the columns before hitting the bad pivot, so the factor no longer
// represents any matrix; poisoning makes every later use fail loudly
// instead of solving against the half-rotated triangle.
var ErrFactorPoisoned = errors.New("matrix: factor poisoned by failed rank-one maintenance")

// Cholesky holds the lower-triangular factor L of a dense SPD matrix
// A = LLᵀ, plus Lᵀ so that both substitution passes stream contiguous
// rows of a row-major Dense instead of striding down a column. It is
// the dense reference factorization: PrepareLS factors every Gram with
// SparseCholesky, and this serial sweep is what tests and the oracle
// check that factor against.
type Cholesky struct {
	n  int
	l  *Dense
	lt *Dense
}

// NewCholesky factors the symmetric positive-definite matrix a with the
// serial column sweep. A pivot that is not positive (or NaN) fails with
// ErrNotPositiveDefinite naming its column.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("matrix: cholesky needs square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	n := a.Rows()
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		ljRow := l.Row(j)
		diag := a.At(j, j)
		for k := 0; k < j; k++ {
			diag -= ljRow[k] * ljRow[k]
		}
		if diag <= 0 || math.IsNaN(diag) {
			return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotPositiveDefinite, j, diag)
		}
		d := math.Sqrt(diag)
		ljRow[j] = d
		for i := j + 1; i < n; i++ {
			liRow := l.Row(i)
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= liRow[k] * ljRow[k]
			}
			liRow[j] = s / d
		}
	}
	return &Cholesky{n: n, l: l, lt: l.Transpose()}, nil
}

// N reports the factored dimension.
func (c *Cholesky) N() int { return c.n }

// Solve solves A x = b given the factorization.
func (c *Cholesky) Solve(b []float64) ([]float64, error) {
	x := make([]float64, c.n)
	if err := c.SolveInto(x, b, make([]float64, c.n)); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A x = b into dst without allocating, using scratch
// (length n) for the forward-substitution intermediate. dst may alias
// b; scratch must not alias either.
func (c *Cholesky) SolveInto(dst, b, scratch []float64) error {
	if len(b) != c.n {
		return fmt.Errorf("matrix: cholesky solve dim %d vs %d", len(b), c.n)
	}
	if len(dst) != c.n || len(scratch) != c.n {
		return fmt.Errorf("matrix: cholesky solve buffers %d/%d vs %d", len(dst), len(scratch), c.n)
	}
	// Forward substitution: L y = b, streaming rows of L.
	y := scratch
	for i := 0; i < c.n; i++ {
		row := c.l.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Back substitution: Lᵀ x = y, streaming rows of Lᵀ (columns of L).
	for i := c.n - 1; i >= 0; i-- {
		row := c.lt.Row(i)
		s := y[i]
		for k := i + 1; k < c.n; k++ {
			s -= row[k] * dst[k]
		}
		dst[i] = s / row[i]
	}
	return nil
}

// LeastSquaresOptions tunes the normal-equations solver.
type LeastSquaresOptions struct {
	// Ridge is added to the Gram diagonal when plain Cholesky fails
	// (columns linearly dependent). Zero selects a default scaled to the
	// Gram trace.
	Ridge float64
}

// SolveNormalEquations computes the least-squares estimate
// x̂ = (HᵀH)⁻¹ Hᵀ y for a sparse H (Eq. 4 of the paper). When HᵀH is
// singular it retries once with ridge regularization so that detection
// degrades gracefully instead of failing. It is the one-shot form of
// PrepareLS + SolveInto; repeated solves against a fixed H should
// prepare once instead.
func SolveNormalEquations(h *CSR, y []float64, opts LeastSquaresOptions) ([]float64, error) {
	if len(y) != h.Rows() {
		return nil, fmt.Errorf("matrix: normal equations dims %dx%d vs %d", h.Rows(), h.Cols(), len(y))
	}
	if h.Cols() == 0 {
		return nil, nil
	}
	p, err := PrepareLS(h, opts)
	if err != nil {
		return nil, err
	}
	return p.Solve(y)
}

// solveNormalEquationsCG computes the least-squares estimate with
// conjugate gradient on the normal equations (CGNR), never materializing
// HᵀH: at most 2n+10 iterations, stopping at a 1e-10 relative residual.
func solveNormalEquationsCG(h *CSR, y []float64) ([]float64, error) {
	if len(y) != h.Rows() {
		return nil, fmt.Errorf("matrix: cg dims %dx%d vs %d", h.Rows(), h.Cols(), len(y))
	}
	n := h.Cols()
	maxIter := 2*n + 10
	const tol = 1e-10
	x := make([]float64, n)
	// r = Hᵀy - HᵀH x = Hᵀ y initially (x = 0).
	r, err := h.TMulVec(y)
	if err != nil {
		return nil, err
	}
	p := make([]float64, n)
	copy(p, r)
	rsOld := Dot(r, r)
	bNorm := math.Sqrt(rsOld)
	if bNorm == 0 {
		return x, nil
	}
	for it := 0; it < maxIter; it++ {
		hp, err := h.MulVec(p)
		if err != nil {
			return nil, err
		}
		ap, err := h.TMulVec(hp)
		if err != nil {
			return nil, err
		}
		denom := Dot(p, ap)
		if denom <= 0 {
			break // numerically semi-definite; accept current iterate
		}
		alpha := rsOld / denom
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rsNew := Dot(r, r)
		if math.Sqrt(rsNew) <= tol*bNorm {
			break
		}
		beta := rsNew / rsOld
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rsOld = rsNew
	}
	return x, nil
}

// ResidualInColumnSpace reports whether vector v lies (within tol) in
// the column space of H, by solving the least-squares problem
// H x ≈ v and checking the residual norm relative to ‖v‖. This is the
// algebraic ground truth for Theorem 1's detectability condition.
func ResidualInColumnSpace(h *CSR, v []float64, tol float64) (bool, float64, error) {
	if len(v) != h.Rows() {
		return false, 0, fmt.Errorf("matrix: dims %dx%d vs %d", h.Rows(), h.Cols(), len(v))
	}
	x, err := solveNormalEquationsCG(h, v)
	if err != nil {
		return false, 0, err
	}
	hx, err := h.MulVec(x)
	if err != nil {
		return false, 0, err
	}
	diff, err := AbsDiff(hx, v)
	if err != nil {
		return false, 0, err
	}
	res := Norm2(diff)
	base := Norm2(v)
	if base == 0 {
		return true, 0, nil
	}
	rel := res / base
	return rel <= tol, rel, nil
}
