// Package oracle is the slow, obviously-right reference every fast
// detection path is checked against: drop the masked rows from H
// explicitly, factor what is left from cold, and ask the paper's
// question (AI = Err_max/Err_med over the least-squares residual of
// HX = Y') of that sub-system. Nothing here is prepared, pooled,
// downdated or shared with the engines under test beyond core.Detect
// itself — and DenseDetect does not share even that: it forms the
// Gram densely and factors it with matrix.NewCholesky, the paper's
// algorithm as written. Tests are the oracle's callers, plus Fig. 12,
// which times DenseDetect as the paper's baseline.
package oracle

import (
	"fmt"
	"math"
	"sort"

	"foces/internal/core"
	"foces/internal/fcm"
	"foces/internal/matrix"
	"foces/internal/topo"
)

// SameIndex reports whether two anomaly indices agree to 1e-9 relative
// — the stated tolerance between the oracle, which factors the
// row-selected system from cold, and an engine that downdates a
// prepared factor. Matching ±Inf and exact zeros agree.
func SameIndex(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// SwitchRows returns the rule rows hosted on the given switches — the
// mask a window with those switches missing must apply.
func SwitchRows(f *fcm.FCM, switches []topo.SwitchID) []int {
	var rows []int
	for _, sw := range switches {
		rows = append(rows, f.RulesAt(sw)...)
	}
	sort.Ints(rows)
	return rows
}

// keptRows lists, in ascending order, the candidates not in masked.
func keptRows(candidates, masked []int) []int {
	drop := make(map[int]bool, len(masked))
	for _, r := range masked {
		drop[r] = true
	}
	var kept []int
	for _, r := range candidates {
		if !drop[r] {
			kept = append(kept, r)
		}
	}
	return kept
}

// Solver answers Algorithm 1 on one system from cold: core.Detect (a
// throwaway prepared engine) or DenseDetect.
type Solver func(h *matrix.CSR, y []float64, opts core.Options) (core.Result, error)

// detectRows runs cold Algorithm 1 through s on h restricted to the
// given rows (global IDs into y) and columns.
func (s Solver) detectRows(h *matrix.CSR, rows, cols []int, y []float64, opts core.Options) (core.Result, error) {
	sub, err := h.SubMatrix(rows, cols)
	if err != nil {
		return core.Result{}, err
	}
	ySub := make([]float64, len(rows))
	for i, r := range rows {
		ySub[i] = y[r]
	}
	return s(sub, ySub, opts)
}

// Detect runs cold Algorithm 1 on h with the masked rows removed. It
// returns the verdict and the surviving rows, ascending; Result.Delta
// is positional over them. Masking every row is an error: a blind
// window has no verdict.
func Detect(h *matrix.CSR, y []float64, masked []int, opts core.Options) (core.Result, []int, error) {
	return Solver(core.Detect).Detect(h, y, masked, opts)
}

// Detect is the package-level Detect with s solving the row-selected
// system.
func (s Solver) Detect(h *matrix.CSR, y []float64, masked []int, opts core.Options) (core.Result, []int, error) {
	all := make([]int, h.Rows())
	for i := range all {
		all[i] = i
	}
	kept := keptRows(all, masked)
	if len(kept) == 0 {
		return core.Result{}, nil, fmt.Errorf("oracle: every row is masked")
	}
	cols := make([]int, h.Cols())
	for j := range cols {
		cols[j] = j
	}
	res, err := s.detectRows(h, kept, cols, y, opts)
	return res, kept, err
}

// DetectSliced runs cold Algorithm 2 with the masked rows removed:
// each slice's sub-FCM is re-derived from f.H over its surviving rows
// and factored from scratch. A slice whose switch has every one of its
// own rules masked is skipped — its V_out is unobservable, so there is
// nothing of that switch's to check. Skipping every slice is an error.
func DetectSliced(f *fcm.FCM, slices []core.Slice, y []float64, masked []int, opts core.Options) (core.SlicedOutcome, error) {
	return Solver(core.Detect).DetectSliced(f, slices, y, masked, opts)
}

// DetectSliced is the package-level DetectSliced with s solving every
// row-selected slice.
func (s Solver) DetectSliced(f *fcm.FCM, slices []core.Slice, y []float64, masked []int, opts core.Options) (core.SlicedOutcome, error) {
	var out core.SlicedOutcome
	for _, sl := range slices {
		if len(keptRows(f.RulesAt(sl.Switch), masked)) == 0 {
			continue
		}
		res, err := s.detectRows(f.H, keptRows(sl.RuleRows, masked), sl.FlowCols, y, opts)
		if err != nil {
			return core.SlicedOutcome{}, fmt.Errorf("oracle: slice switch %d: %w", sl.Switch, err)
		}
		out.PerSwitch = append(out.PerSwitch, core.SliceResult{Switch: sl.Switch, Result: res})
		out.Anomalous = out.Anomalous || res.Anomalous
	}
	if len(out.PerSwitch) == 0 {
		return core.SlicedOutcome{}, fmt.Errorf("oracle: every slice is masked")
	}
	ranked := append([]core.SliceResult(nil), out.PerSwitch...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Result.Index > ranked[j].Result.Index })
	for _, r := range ranked {
		if r.Result.Anomalous {
			out.Suspects = append(out.Suspects, r.Switch)
		}
	}
	return out, nil
}
