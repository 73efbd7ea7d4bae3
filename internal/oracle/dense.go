package oracle

import (
	"errors"
	"fmt"

	"foces/internal/core"
	"foces/internal/matrix"
)

// denseNormalEquations computes the least-squares estimate x̂ the
// engines compute, the textbook way: the Gram of h's small side formed
// densely and factored by matrix.NewCholesky. A tall h solves
// (HᵀH)x̂ = Hᵀy, retrying under the default ridge ε = 1e-9·(trace/cols
// + 1) when HᵀH is singular; a wide h solves x̂ = Hᵀ(HHᵀ+εI)⁻¹y under
// the same ε, the estimator a dual engine computes. It costs O(n³) in
// the factored dimension: it is the paper's algorithm as written, not
// a way to run detection.
func denseNormalEquations(h *matrix.CSR, y []float64) ([]float64, error) {
	if len(y) != h.Rows() {
		return nil, fmt.Errorf("oracle: dense normal equations dims %dx%d vs %d", h.Rows(), h.Cols(), len(y))
	}
	a := h.ToDense()
	dual := h.Rows() < h.Cols()
	if dual {
		a = a.Transpose()
	}
	g := a.Gram()
	var chol *matrix.Cholesky
	var err error
	if !dual {
		chol, err = matrix.NewCholesky(g)
		if err != nil && !errors.Is(err, matrix.ErrNotPositiveDefinite) {
			return nil, err
		}
	}
	if chol == nil {
		trace := 0.0
		for i := 0; i < g.Rows(); i++ {
			trace += g.At(i, i)
		}
		ridge := 1e-9 * (trace/float64(h.Cols()) + 1)
		for i := 0; i < g.Rows(); i++ {
			g.Add(i, i, ridge)
		}
		if chol, err = matrix.NewCholesky(g); err != nil {
			return nil, fmt.Errorf("oracle: ridge-regularized normal equations: %w", err)
		}
	}
	if !dual {
		rhs, err := h.TMulVec(y)
		if err != nil {
			return nil, err
		}
		return chol.Solve(rhs)
	}
	z, err := chol.Solve(y)
	if err != nil {
		return nil, err
	}
	return h.TMulVec(z)
}

// DenseDetect is Algorithm 1 with the volume estimate taken from
// denseNormalEquations. A system with no rules or no flows has nothing
// to factor and is answered by core.Detect.
func DenseDetect(h *matrix.CSR, y []float64, opts core.Options) (core.Result, error) {
	if h.Rows() == 0 || h.Cols() == 0 {
		return core.Detect(h, y, opts)
	}
	xHat, err := denseNormalEquations(h, y)
	if err != nil {
		return core.Result{}, err
	}
	return core.Fit(h, y, xHat, opts)
}
