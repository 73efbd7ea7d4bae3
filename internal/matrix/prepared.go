package matrix

import (
	"errors"
	"fmt"
	"time"
)

// PreparedLS is a factor-once/solve-many least-squares engine for a
// fixed sparse H: the normal equations are assembled and
// Cholesky-factored at prepare time (with the ridge fallback for
// linearly dependent columns baked in), so each subsequent solve costs
// only sparse products with H and two triangular substitutions — no
// factorization work and, via SolveInto, no allocation. H only changes
// when the controller installs rules, so continuous monitors prepare
// once per rule generation and solve every detection period.
//
// Which side is factored is a property of H, not an option. A tall or
// square H (Rows ≥ Cols) takes the primal form x̂ = (HᵀH)⁻¹Hᵀy, with
// the ridge only when HᵀH turns out singular. A wide H (Rows < Cols)
// has a singular HᵀH by construction (rank ≤ Rows), so the primal path
// would always end at (HᵀH+εI)⁻¹Hᵀy; the engine instead factors the
// Rows×Rows dual Gram and computes x̂ = Hᵀ(HHᵀ+εI)⁻¹y — the same
// estimator exactly (push-through identity) under the same ε. For a
// flow-counter matrix the dual Gram is also the sparser one: a flow
// crosses at most path-length+1 rules, so a column of H adds a handful
// of entries to HHᵀ, while an aggregate rule carrying k flows adds k²
// to HᵀH. A dual engine's factor is not a factor of HᵀH, so it refuses
// CloneFactor; callers that maintain factors by rank-one updates take
// the refactor path they already have for factor-less engines.
//
// There is one factorization backend: the Gram is assembled sparsely
// (O(nnz)) and factored by SparseCholesky, whatever its width or
// density — a Gram that fills in just factors as wider supernodes.
type PreparedLS struct {
	h     *CSR
	sp    *SparseCholesky
	ridge float64
	stats PrepareStats
}

// PrepareStats records where prepare time went, for the prepare-stage
// telemetry histograms. All durations and counts except Dim are zero
// for engines wrapped with NewPreparedLSFromUpdatable (no Gram or
// factorization ran).
type PrepareStats struct {
	// Dual reports that H was wide (Rows < Cols) and the engine factored
	// HHᵀ+εI instead of HᵀH; every other field then describes that
	// side. Dim is the factored dimension: Rows when Dual, else Cols.
	Dual bool
	Dim  int
	// Gram is the Gram assembly time (a dual engine's includes
	// transposing H).
	Gram time.Duration
	// Factor is the total factorization time, Ordering + Symbolic +
	// Numeric, including the ridge retry when the plain factorization
	// failed (a dual engine never retries: its ridge goes in before the
	// only attempt).
	Factor time.Duration
	// The factorization's stage split: fill-reducing ordering, symbolic
	// analysis (both zero when a previous engine's analysis was reused),
	// and numeric factorization.
	Ordering time.Duration
	Symbolic time.Duration
	Numeric  time.Duration
	// GramNNZ and FactorNNZ record the stored lower-triangle entry
	// counts of the Gram and its factor; their ratio is the fill-in.
	GramNNZ, FactorNNZ int
}

// PrepareLS assembles and factors the normal equations of h. When HᵀH
// is singular it applies the same ridge regularization as
// SolveNormalEquations (opts.Ridge, or a trace-scaled default) before
// refactoring, so prepared and one-shot solves agree exactly; a wide h
// is singular by construction and goes straight to the dual form under
// that ridge (see PreparedLS).
func PrepareLS(h *CSR, opts LeastSquaresOptions) (*PreparedLS, error) {
	return PrepareLSReusing(h, opts, nil)
}

// PrepareLSReusing prepares like PrepareLS but, when prev's factored
// Gram pattern (primal or dual) exactly matches the one h will factor,
// reuses prev's cached ordering and symbolic analysis and runs only the
// numeric factorization. The churn manager uses it so value-only rule
// churn (and ridge retries) never repeat the pattern work.
func PrepareLSReusing(h *CSR, opts LeastSquaresOptions, prev *PreparedLS) (*PreparedLS, error) {
	// a is the matrix whose Gram aᵀa gets factored: h itself, or hᵀ when
	// h is wide and the small side is HHᵀ.
	t0 := time.Now()
	a := h
	if h.Rows() < h.Cols() {
		a = h.transpose()
	}
	g := a.SymGram()
	tGram := time.Since(t0)
	var tOrd, tSym time.Duration
	var sym *SparseSymbolic
	if prev != nil {
		sym = prev.sp.sym
	}
	if sym == nil || !sym.Matches(g) {
		t1 := time.Now()
		perm := amdOrder(g.n, g.adjPtr, g.adj)
		tOrd = time.Since(t1)
		t2 := time.Now()
		sym = symbolicFromPerm(g, perm)
		tSym = time.Since(t2)
	}
	t3 := time.Now()
	dual := a != h
	ridge := 0.0
	var sp *SparseCholesky
	var err error
	if !dual {
		sp, err = newSparseCholeskyWith(g, sym)
		if err != nil && !errors.Is(err, ErrNotPositiveDefinite) {
			return nil, err
		}
	}
	if sp == nil {
		// The pattern always stores diagonal slots, so the ridge changes
		// no pattern and a retry reuses the same symbolic analysis.
		ridge = ridgeFor(opts, g.Trace(), h.Cols())
		g.AddRidge(ridge)
		sp, err = newSparseCholeskyWith(g, sym)
		if err != nil {
			return nil, fmt.Errorf("matrix: ridge-regularized normal equations: %w", err)
		}
	}
	tNum := time.Since(t3)
	return &PreparedLS{h: h, sp: sp, ridge: ridge, stats: PrepareStats{
		Dual:      dual,
		Dim:       a.Cols(),
		Gram:      tGram,
		Factor:    tOrd + tSym + tNum,
		Ordering:  tOrd,
		Symbolic:  tSym,
		Numeric:   tNum,
		GramNNZ:   g.NNZLower(),
		FactorNNZ: sp.FactorNNZ(),
	}}, nil
}

// ridgeFor is the regularization ε for a singular HᵀH: opts.Ridge, or
// by default 1e-9 of the mean diagonal of HᵀH (plus one). trace(HHᵀ) =
// trace(HᵀH), so the dual form passes its own Gram's trace and H's
// column count and lands on the same ε.
func ridgeFor(opts LeastSquaresOptions, trace float64, cols int) float64 {
	if opts.Ridge != 0 {
		return opts.Ridge
	}
	return 1e-9 * (trace/float64(cols) + 1)
}

// NewPreparedLSFromUpdatable wraps a rank-one-maintained factor of
// hᵀh (+ ridge·I) as a prepared primal engine. The factor's dimension
// must be h's column count — which also keeps a dual engine's
// Rows-sized factor from ever being wrapped — and poisoned factors (a
// failed Update/Downdate) are rejected with ErrFactorPoisoned so a
// broken factor can never be promoted into a serving engine.
func NewPreparedLSFromUpdatable(h *CSR, f *SparseCholesky, ridge float64) (*PreparedLS, error) {
	if f == nil {
		return nil, fmt.Errorf("matrix: nil factor")
	}
	if f.N() != h.Cols() {
		return nil, fmt.Errorf("matrix: factor dim %d vs %d columns", f.N(), h.Cols())
	}
	if !f.Valid() {
		return nil, ErrFactorPoisoned
	}
	return &PreparedLS{h: h, sp: f, ridge: ridge, stats: PrepareStats{Dim: f.N()}}, nil
}

// CloneFactor returns an independently updatable copy of the prepared
// factor of HᵀH, or nil for a dual engine: row updates of H are
// rank-one changes to HᵀH but change the dimension of HHᵀ. The clone
// shares no mutable state with the serving engine.
func (p *PreparedLS) CloneFactor() *SparseCholesky {
	if p.stats.Dual {
		return nil
	}
	return p.sp.Clone()
}

// H exposes the prepared coefficient matrix.
func (p *PreparedLS) H() *CSR { return p.h }

// Rows reports the row count of the prepared H.
func (p *PreparedLS) Rows() int { return p.h.Rows() }

// Cols reports the column count of the prepared H (the solution
// length, and the required length of dst and workspace in SolveInto).
func (p *PreparedLS) Cols() int { return p.h.Cols() }

// Ridge reports the regularization applied at prepare time (0 when
// plain Cholesky succeeded).
func (p *PreparedLS) Ridge() float64 { return p.ridge }

// Stats reports where the prepare time of this engine went.
func (p *PreparedLS) Stats() PrepareStats { return p.stats }

// Solve computes the least-squares estimate x̂ for observed counters y,
// allocating the result.
func (p *PreparedLS) Solve(y []float64) ([]float64, error) {
	dst := make([]float64, p.Cols())
	if err := p.SolveInto(dst, y, make([]float64, p.Cols())); err != nil {
		return nil, err
	}
	return dst, nil
}

// SolveInto computes x̂ = (HᵀH)⁻¹Hᵀy — on a dual engine the equal
// Hᵀ(HHᵀ+εI)⁻¹y — into dst (length Cols()) without allocating.
// workspace is scratch of length Cols() that must not alias dst or y.
func (p *PreparedLS) SolveInto(dst, y, workspace []float64) error {
	m, n := p.h.Rows(), p.h.Cols()
	if len(y) != m {
		return fmt.Errorf("matrix: prepared solve dims %dx%d vs %d", m, n, len(y))
	}
	if p.stats.Dual {
		if len(dst) != n || len(workspace) != n {
			return fmt.Errorf("matrix: prepared solve buffers %d/%d vs %d columns", len(dst), len(workspace), n)
		}
		// z = (HHᵀ+εI)⁻¹y lives in the head of the workspace; the head of
		// dst is free until Hᵀz overwrites it, so it serves as the
		// triangular-solve scratch.
		z := workspace[:m]
		if err := p.sp.SolveInto(z, y, dst[:m]); err != nil {
			return err
		}
		return p.h.TMulVecInto(dst, z)
	}
	if err := p.h.TMulVecInto(dst, y); err != nil {
		return err
	}
	return p.sp.SolveInto(dst, dst, workspace)
}
