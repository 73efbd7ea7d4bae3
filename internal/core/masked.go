package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"foces/internal/matrix"
	"foces/internal/stats"
)

// This file holds engines rebuilt from incrementally maintained
// factors, and detection with a subset of rows masked out — the one
// degraded path. A window that straddles a rule update (rows whose
// rules changed mid-window carry mixed-epoch counts) and a window with
// an unreachable switch (its rows carry no counts at all) are the same
// thing to the solver: rows to leave out of HX = Y'.

// NewDetectorFromPrepared wraps an externally prepared least-squares
// engine (for example one whose factor was advanced by rank-one
// update/downdate from the previous rule generation) as a Detector.
func NewDetectorFromPrepared(ls *matrix.PreparedLS, opts Options) *Detector {
	d := &Detector{h: ls.H(), opts: opts, ls: ls}
	d.initPool()
	return d
}

// Prepared exposes the engine's prepared least-squares solver (nil when
// H is degenerate). Callers deriving a
// modified factor must Clone it.
func (d *Detector) Prepared() *matrix.PreparedLS { return d.ls }

// NewSlicedDetectorWithEngines assembles a sliced detector from
// pre-built per-slice engines, skipping the per-slice factorization
// that NewSlicedDetector performs. The churn manager uses it to carry
// unaffected slices' engines across a rule update unchanged. Each
// engine's row count must match its slice's RuleRows.
func NewSlicedDetectorWithEngines(slices []Slice, engines []*Detector, numRules int, opts Options) (*SlicedDetector, error) {
	if len(engines) != len(slices) {
		return nil, fmt.Errorf("core: %d engines for %d slices", len(engines), len(slices))
	}
	for i, sl := range slices {
		for _, rid := range sl.RuleRows {
			if rid < 0 || rid >= numRules {
				return nil, fmt.Errorf("core: slice rule %d outside counter vector (%d)", rid, numRules)
			}
		}
		if engines[i] == nil {
			return nil, fmt.Errorf("core: slice switch %d: nil engine", sl.Switch)
		}
		if engines[i].h.Rows() != len(sl.RuleRows) {
			return nil, fmt.Errorf("core: slice switch %d: engine has %d rows, slice %d",
				sl.Switch, engines[i].h.Rows(), len(sl.RuleRows))
		}
	}
	return newSlicedDetector(slices, engines, numRules, opts), nil
}

// RowMask expands a list of masked row indices into a boolean mask over
// n rows, rejecting indices outside [0, n). An empty list yields a nil
// mask: nothing masked, nothing allocated.
func RowMask(n int, masked []int) ([]bool, error) {
	if len(masked) == 0 {
		return nil, nil
	}
	mask := make([]bool, n)
	for _, i := range masked {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("core: masked row %d outside %d rows", i, n)
		}
		mask[i] = true
	}
	return mask, nil
}

// DetectMasked runs Algorithm 1 with the given rows (indices into y /
// the engine's H) excluded from the equation system and from the
// error statistics — the one question FOCES asks, on a row subspace.
// Why a row is masked (its switch did not report, its rule changed
// mid-window) is the caller's business; an empty mask is exactly
// DetectWithOptions. The prepared factor of HᵀH is downdated by each
// masked row instead of refactored; if the downdated system loses
// positive definiteness, or the engine has no such factor (a wide H is
// prepared in dual form, see matrix.PreparedLS), it falls back to a
// one-shot solve over the surviving rows. Delta and YHat stay aligned
// with the full row space (masked entries read 0 in Delta). Masking
// every row is an error: a blind window must not read as a clean one.
func (d *Detector) DetectMasked(y []float64, masked []int, opts Options) (Result, error) {
	sc := d.pool.Get().(*detectScratch)
	defer d.pool.Put(sc)
	return d.detectMasked(y, masked, opts, sc)
}

// detectMasked is the one detection body every caller reaches —
// DetectWithOptions and DetectMasked with the engine's pooled scratch,
// a SlicedDetector run with the slice's share of its run scratch. sc
// is the solve and median workspace, sized for this engine's H.
func (d *Detector) detectMasked(y []float64, masked []int, opts Options, sc *detectScratch) (Result, error) {
	if len(masked) == 0 {
		return d.detectAll(y, opts, sc)
	}
	h := d.h
	if h.Rows() != len(y) {
		return Result{}, fmt.Errorf("core: H is %dx%d but y has %d entries", h.Rows(), h.Cols(), len(y))
	}
	mask, err := RowMask(h.Rows(), masked)
	if err != nil {
		return Result{}, err
	}
	tel := d.tel
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	kept := make([]int, 0, h.Rows())
	for i := 0; i < h.Rows(); i++ {
		if !mask[i] {
			kept = append(kept, i)
		}
	}
	if len(kept) == 0 {
		return Result{}, fmt.Errorf("core: every row is masked; nothing to check")
	}
	yKept := make([]float64, len(kept))
	for j, i := range kept {
		yKept[j] = y[i]
	}
	opts = opts.withDefaults(yKept)
	if h.Cols() == 0 {
		yHat, delta := fitBuffers(len(y))
		compact := make([]float64, 0, len(kept))
		for _, i := range kept {
			delta[i] = math.Abs(y[i])
			compact = append(compact, delta[i])
		}
		res := Result{Delta: delta, YHat: yHat}
		res.ErrMax, _ = stats.Max(compact)
		res.Index = anomalyIndex(res.ErrMax, 0, opts.ZeroTol)
		res.Anomalous = res.Index > opts.Threshold
		tel.outcome(t0, res)
		return res, nil
	}
	var xHat []float64
	solved := false
	// CloneFactor works for dense- and sparse-backed engines alike; a
	// nil clone (degenerate or dual engine) falls through to the
	// one-shot solve.
	if chol := d.cloneFactorForMask(); chol != nil {
		row := make([]float64, h.Cols())
		ok := true
		for i := range mask {
			if !mask[i] {
				continue
			}
			for j := range row {
				row[j] = 0
			}
			nnz := 0
			h.RowEntries(i, func(col int, v float64) {
				row[col] = v
				nnz++
			})
			if nnz == 0 {
				continue // placeholder / all-zero row: Gram unaffected
			}
			if err := chol.Downdate(row); err != nil {
				if errors.Is(err, matrix.ErrNotPositiveDefinite) {
					ok = false
					break
				}
				return Result{}, fmt.Errorf("core: masked downdate: %w", err)
			}
		}
		if ok {
			// Hᵀy with masked rows zeroed is exactly the masked system's
			// right-hand side.
			ym := make([]float64, len(y))
			copy(ym, y)
			for i := range mask {
				if mask[i] {
					ym[i] = 0
				}
			}
			xHat = make([]float64, h.Cols())
			if err := h.TMulVecInto(xHat, ym); err != nil {
				return Result{}, err
			}
			if err := chol.SolveInto(xHat, xHat, sc.ws); err != nil {
				return Result{}, fmt.Errorf("core: masked solve: %w", err)
			}
			solved = true
		}
	}
	if !solved {
		cols := make([]int, h.Cols())
		for j := range cols {
			cols[j] = j
		}
		sub, err := h.SubMatrix(kept, cols)
		if err != nil {
			return Result{}, err
		}
		xHat, err = matrix.SolveNormalEquations(sub, yKept, matrix.LeastSquaresOptions{})
		if err != nil {
			return Result{}, fmt.Errorf("core: masked volume estimate: %w", err)
		}
	}
	yHat, delta := fitBuffers(h.Rows())
	if err := h.MulVecInto(yHat, xHat); err != nil {
		return Result{}, err
	}
	compact := make([]float64, 0, len(kept))
	for _, i := range kept {
		delta[i] = math.Abs(y[i] - yHat[i])
		compact = append(compact, delta[i])
	}
	res := Result{Delta: delta, XHat: xHat, YHat: yHat}
	res.ErrMax, _ = stats.Max(compact)
	res.ErrMed = opts.denominatorInto(sc.med[:len(compact)], compact)
	res.Index = anomalyIndex(res.ErrMax, res.ErrMed, opts.ZeroTol)
	res.Anomalous = res.Index > opts.Threshold
	tel.outcome(t0, res)
	return res, nil
}

// cloneFactorForMask returns an independently downdatable copy of the
// engine's HᵀH factor for the masked path, or nil when the engine has
// none to downdate (degenerate H, dual engine).
func (d *Detector) cloneFactorForMask() matrix.UpdatableFactor {
	if d.ls == nil {
		return nil
	}
	return d.ls.CloneFactor()
}
