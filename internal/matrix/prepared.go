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
// Factor and CloneFactor; callers that maintain factors by rank-one
// updates take the refactor path they already have for factor-less
// engines.
//
// The factorization backend is chosen from the structure of the Gram
// that gets factored, not from its width. That Gram is always assembled
// sparsely first (O(nnz)); under the default SparseAuto it is factored
// sparsely when its density is at or below sparseMaxDensity, and only
// a Gram that fills in is scattered to the dense kernels.
// KernelOptions.Sparse can force either backend.
type PreparedLS struct {
	h     *CSR
	chol  *Cholesky       // dense backend (nil when sparse)
	sp    *SparseCholesky // sparse backend (nil when dense)
	ridge float64
	stats PrepareStats
}

// PrepareStats records where prepare time went, for the prepare-stage
// telemetry histograms. All durations are zero for engines wrapped
// with NewPreparedLSFromFactor (no Gram or factorization ran).
type PrepareStats struct {
	// Dual reports that H was wide (Rows < Cols) and the engine factored
	// HHᵀ+εI instead of HᵀH; every other field then describes that
	// side. Dim is the factored dimension: Rows when Dual, else Cols.
	Dual bool
	Dim  int
	// Gram is the Gram assembly time (sparse or dense form; a dual
	// engine's includes transposing H).
	Gram time.Duration
	// Factor is the total factorization time, including the ridge retry
	// when the plain factorization failed (a dual engine never retries:
	// its ridge goes in before the only attempt). On the sparse path it
	// equals Ordering + Symbolic + Numeric.
	Factor time.Duration
	// Sparse-path stage split (zero on the dense path): fill-reducing
	// ordering, symbolic analysis, and numeric factorization.
	Ordering time.Duration
	Symbolic time.Duration
	Numeric  time.Duration
	// Sparse reports which backend was selected.
	Sparse bool
	// GramNNZ and FactorNNZ record the stored lower-triangle entry
	// counts of the sparse Gram and its factor (zero on the dense path);
	// their ratio is the fill-in.
	GramNNZ, FactorNNZ int
}

// UpdatableFactor is the rank-one-maintainable factor interface shared
// by the dense *Cholesky and the *SparseCholesky backends. The churn
// manager clones a prepared engine's factor through it and repairs the
// clone in place, without caring which backend prepared the engine.
type UpdatableFactor interface {
	N() int
	Valid() bool
	Update(x []float64) error
	Downdate(x []float64) error
	SolveInto(dst, b, scratch []float64) error
}

// PrepareLS assembles and factors the normal equations of h under the
// package kernel defaults. When HᵀH is singular it applies the same
// ridge regularization as SolveNormalEquations (opts.Ridge, or a
// trace-scaled default) before refactoring, so prepared and one-shot
// solves agree exactly; a wide h is singular by construction and goes
// straight to the dual form under that ridge (see PreparedLS).
func PrepareLS(h *CSR, opts LeastSquaresOptions) (*PreparedLS, error) {
	return PrepareLSOpts(h, opts, KernelOptions{})
}

// PrepareLSOpts prepares like PrepareLS with explicit kernel options.
func PrepareLSOpts(h *CSR, opts LeastSquaresOptions, ko KernelOptions) (*PreparedLS, error) {
	return prepareLS(h, opts, ko, nil)
}

// PrepareLSReusing prepares like PrepareLSOpts but, when prev is a
// sparse-backed engine whose factored Gram pattern (primal or dual)
// exactly matches the one h will factor, reuses prev's cached ordering
// and symbolic analysis and runs only the numeric factorization. The
// churn manager uses it so value-only rule churn (and ridge retries)
// never repeat the pattern work.
func PrepareLSReusing(h *CSR, opts LeastSquaresOptions, ko KernelOptions, prev *PreparedLS) (*PreparedLS, error) {
	var sym *SparseSymbolic
	if prev != nil && prev.sp != nil {
		sym = prev.sp.sym
	}
	return prepareLS(h, opts, ko, sym)
}

// sparseMaxDensity is the Gram density at or below which SparseAuto
// factors sparsely. A diagonal Gram — a pair-exact FCM slice, where
// every rule matches one flow — has density 1/n and goes sparse from
// n = 8 columns up; a Gram whose rules aggregate many flows fills in
// past it and is factored dense.
const sparseMaxDensity = 0.125

func prepareLS(h *CSR, opts LeastSquaresOptions, ko KernelOptions, prevSym *SparseSymbolic) (*PreparedLS, error) {
	// a is the matrix whose Gram aᵀa gets factored: h itself, or hᵀ when
	// h is wide and the small side is HHᵀ.
	t0 := time.Now()
	a := h
	if h.Rows() < h.Cols() {
		a = h.transpose()
	}
	g := a.SymGram()
	tGram := time.Since(t0)
	mode := ko.Sparse
	if mode == SparseAuto {
		mode = KernelDefaults().Sparse
	}
	var p *PreparedLS
	var err error
	if mode == SparseAlways || mode == SparseAuto && g.Density() <= sparseMaxDensity {
		p, err = prepareSparse(h, a, opts, ko, g, tGram, prevSym)
	} else {
		p, err = prepareDense(h, a, opts, ko, g, tGram)
	}
	if err != nil {
		return nil, err
	}
	p.h = h
	p.stats.Dual, p.stats.Dim = a != h, a.Cols()
	return p, nil
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

// prepareDense is the dense backend: the sparse Gram g of a scattered
// to dense (entry-for-entry equal to the serial dense assembly),
// blocked Cholesky, ridge retry — or, when a is hᵀ, the ridge up front
// and one factorization.
func prepareDense(h, a *CSR, opts LeastSquaresOptions, ko KernelOptions, g *SymSparse, tGram time.Duration) (*PreparedLS, error) {
	t0 := time.Now()
	gram := g.ToDense()
	tGram += time.Since(t0)
	t1 := time.Now()
	if dual := a != h; !dual {
		chol, err := NewCholeskyOpts(gram, ko)
		if err == nil {
			return &PreparedLS{chol: chol, stats: PrepareStats{Gram: tGram, Factor: time.Since(t1)}}, nil
		}
		if !errors.Is(err, ErrNotPositiveDefinite) {
			return nil, err
		}
	}
	trace := 0.0
	for i := 0; i < gram.Rows(); i++ {
		trace += gram.At(i, i)
	}
	ridge := ridgeFor(opts, trace, h.Cols())
	for i := 0; i < gram.Rows(); i++ {
		gram.Add(i, i, ridge)
	}
	chol, err := NewCholeskyOpts(gram, ko)
	if err != nil {
		return nil, fmt.Errorf("matrix: ridge-regularized normal equations: %w", err)
	}
	return &PreparedLS{chol: chol, ridge: ridge, stats: PrepareStats{Gram: tGram, Factor: time.Since(t1)}}, nil
}

// prepareSparse is the sparse backend: AMD ordering + symbolic analysis
// (reused from prevSym when its Gram pattern matches), supernodal
// numeric factorization, ridge retry on the same analysis — or, when a
// is hᵀ, the ridge up front and one factorization.
func prepareSparse(h, a *CSR, opts LeastSquaresOptions, ko KernelOptions, g *SymSparse, tGram time.Duration, prevSym *SparseSymbolic) (*PreparedLS, error) {
	var tOrd, tSym time.Duration
	sym := prevSym
	if sym == nil || !sym.Matches(g) {
		t0 := time.Now()
		perm := amdOrder(g.n, g.adjPtr, g.adj)
		tOrd = time.Since(t0)
		t1 := time.Now()
		sym = symbolicFromPerm(g, perm)
		tSym = time.Since(t1)
	}
	t2 := time.Now()
	ridge := 0.0
	var sp *SparseCholesky
	var err error
	if dual := a != h; !dual {
		sp, err = newSparseCholeskyWith(g, sym, ko)
		if err != nil && !errors.Is(err, ErrNotPositiveDefinite) {
			return nil, err
		}
	}
	if sp == nil {
		// The pattern always stores diagonal slots, so the ridge changes
		// no pattern and a retry reuses the same symbolic analysis.
		ridge = ridgeFor(opts, g.Trace(), h.Cols())
		g.AddRidge(ridge)
		sp, err = newSparseCholeskyWith(g, sym, ko)
		if err != nil {
			return nil, fmt.Errorf("matrix: ridge-regularized normal equations: %w", err)
		}
	}
	tNum := time.Since(t2)
	return &PreparedLS{sp: sp, ridge: ridge, stats: PrepareStats{
		Gram:      tGram,
		Factor:    tOrd + tSym + tNum,
		Ordering:  tOrd,
		Symbolic:  tSym,
		Numeric:   tNum,
		Sparse:    true,
		GramNNZ:   g.NNZLower(),
		FactorNNZ: sp.FactorNNZ(),
	}}, nil
}

// NewPreparedLSFromFactor wraps an externally maintained dense Cholesky
// factor of hᵀh (for example one produced by rank-one Update/Downdate
// from a previous generation's factor) as a prepared engine. The caller
// is responsible for chol actually factoring hᵀh (+ ridge·I); beyond
// the dimension match the only check is that the factor has not been
// poisoned by a failed rank-one pass.
func NewPreparedLSFromFactor(h *CSR, chol *Cholesky, ridge float64) (*PreparedLS, error) {
	return NewPreparedLSFromUpdatable(h, chol, ridge)
}

// NewPreparedLSFromUpdatable wraps a rank-one-maintained factor of
// hᵀh (+ ridge·I), of either backend, as a prepared primal engine. The
// factor's dimension must be h's column count — which also keeps a
// dual engine's Rows-sized factor from ever being wrapped — and
// poisoned factors (a failed Update/Downdate) are rejected with
// ErrFactorPoisoned so a broken factor can never be promoted into a
// serving engine.
func NewPreparedLSFromUpdatable(h *CSR, f UpdatableFactor, ridge float64) (*PreparedLS, error) {
	if f == nil {
		return nil, fmt.Errorf("matrix: nil factor")
	}
	if f.N() != h.Cols() {
		return nil, fmt.Errorf("matrix: factor dim %d vs %d columns", f.N(), h.Cols())
	}
	if !f.Valid() {
		return nil, ErrFactorPoisoned
	}
	p := &PreparedLS{h: h, ridge: ridge, stats: PrepareStats{Dim: f.N()}}
	switch t := f.(type) {
	case *Cholesky:
		p.chol = t
	case *SparseCholesky:
		p.sp = t
	default:
		return nil, fmt.Errorf("matrix: unknown factor type %T", f)
	}
	return p, nil
}

// Factor exposes the underlying dense Cholesky factorization of HᵀH,
// or nil when the engine is sparse-backed or dual; prefer CloneFactor
// for backend-agnostic rank-one maintenance. Callers that need a
// modified engine must Clone it first; mutating the returned factor
// corrupts the prepared engine.
func (p *PreparedLS) Factor() *Cholesky {
	if p.stats.Dual {
		return nil
	}
	return p.chol
}

// SparseBacked reports whether the sparse direct backend prepared this
// engine.
func (p *PreparedLS) SparseBacked() bool { return p.sp != nil }

// CloneFactor returns an independently updatable copy of the prepared
// factor of HᵀH (dense or sparse), or nil for engines without one —
// which includes every dual engine: row updates of H are rank-one
// changes to HᵀH but change the dimension of HHᵀ. The clone shares no
// mutable state with the serving engine.
func (p *PreparedLS) CloneFactor() UpdatableFactor {
	switch {
	case p.stats.Dual:
		return nil
	case p.sp != nil:
		return p.sp.Clone()
	case p.chol != nil:
		return p.chol.Clone()
	default:
		return nil
	}
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

// factorSolve solves against the prepared factor (either backend) at
// the factored dimension.
func (p *PreparedLS) factorSolve(dst, b, scratch []float64) error {
	if p.sp != nil {
		return p.sp.SolveInto(dst, b, scratch)
	}
	return p.chol.SolveInto(dst, b, scratch)
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
		if err := p.factorSolve(z, y, dst[:m]); err != nil {
			return err
		}
		return p.h.TMulVecInto(dst, z)
	}
	if err := p.h.TMulVecInto(dst, y); err != nil {
		return err
	}
	return p.factorSolve(dst, dst, workspace)
}
