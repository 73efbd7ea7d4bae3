package core

import (
	"fmt"
	"math"
	"time"

	"foces/internal/matrix"
	"foces/internal/stats"
)

// PrepareStats reports where this engine's prepare time went (Gram
// assembly vs Cholesky factorization). Zero for engines without a
// prepared factorization (degenerate H, non-Cholesky solver) and for
// engines assembled from an externally maintained factor.
func (d *Detector) PrepareStats() matrix.PrepareStats {
	if d.ls == nil {
		return matrix.PrepareStats{}
	}
	return d.ls.Stats()
}

// DetectBatch runs Algorithm 1 on k observation windows against the
// same prepared baseline, amortizing the triangular-factor memory
// traffic across the windows with one multi-RHS solve
// (Cholesky.SolveManyInto). Results are returned in input order and
// each is bitwise identical to the corresponding Detect(ys[r]) call —
// batching is purely a throughput optimization, so callers migrate by
// collecting windows and switching the call, with no behavioral or
// tuning changes. Windows that cannot take the batched solve (empty H,
// CG solver) fall back to per-window Detect internally.
func (d *Detector) DetectBatch(ys [][]float64) ([]Result, error) {
	return d.DetectBatchWithOptions(ys, d.opts)
}

// DetectBatchWithOptions is DetectBatch with per-call options applied
// to every window (the prepared factorization is reused).
func (d *Detector) DetectBatchWithOptions(ys [][]float64, opts Options) ([]Result, error) {
	if len(ys) == 0 {
		return nil, nil
	}
	h := d.h
	for r, y := range ys {
		if h.Rows() != len(y) {
			return nil, fmt.Errorf("core: batch window %d: H is %dx%d but y has %d entries", r, h.Rows(), h.Cols(), len(y))
		}
	}
	resolvedSolver := opts.Solver
	if resolvedSolver == 0 {
		resolvedSolver = SolverCholesky
	}
	if len(ys) == 1 || h.Rows() == 0 || h.Cols() == 0 || d.ls == nil || resolvedSolver != SolverCholesky {
		results := make([]Result, len(ys))
		for r, y := range ys {
			res, err := d.DetectWithOptions(y, opts)
			if err != nil {
				return nil, fmt.Errorf("core: batch window %d: %w", r, err)
			}
			results[r] = res
		}
		return results, nil
	}
	tel := d.tel
	var t0 time.Time
	if tel != nil {
		t0 = time.Now()
	}
	x, err := d.ls.SolveBatch(ys)
	if err != nil {
		return nil, fmt.Errorf("core: batch volume estimate: %w", err)
	}
	var tResid time.Time
	if tel != nil {
		tResid = time.Now()
		tel.solve.ObserveDuration(tResid.Sub(t0).Nanoseconds())
	}
	sc := d.pool.Get().(*detectScratch)
	defer d.pool.Put(sc)
	results := make([]Result, len(ys))
	for r, y := range ys {
		wopts := opts.withDefaults(y)
		xHat := make([]float64, h.Cols())
		for i := range xHat {
			xHat[i] = x.At(i, r)
		}
		yHat, delta := fitBuffers(h.Rows())
		if err := h.MulVecInto(yHat, xHat); err != nil {
			return nil, err
		}
		for i := range delta {
			delta[i] = math.Abs(y[i] - yHat[i])
		}
		res := Result{Delta: delta, XHat: xHat, YHat: yHat}
		res.ErrMax, _ = stats.Max(delta)
		res.ErrMed = wopts.denominatorInto(sc.med, delta)
		res.Index = anomalyIndex(res.ErrMax, res.ErrMed, wopts.ZeroTol)
		res.Anomalous = res.Index > wopts.Threshold
		results[r] = res
		// Batched windows report batch-inclusive latency: the shared
		// multi-RHS solve is part of every window's wall time.
		tel.outcome(t0, res)
	}
	if tel != nil {
		tel.residual.ObserveDuration(time.Since(tResid).Nanoseconds())
	}
	return results, nil
}
