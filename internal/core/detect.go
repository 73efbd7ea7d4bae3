// Package core implements the FOCES detection algorithms: the
// threshold-based network-wide detector (Algorithm 1), the
// slicing-based scalable detector (Algorithm 2) built on Rule Bipartite
// Graphs, the Theorem 1/Theorem 2 detectability analysis, and the
// per-switch anomaly localization sketched as future work in §IV-B.
package core

import (
	"fmt"
	"math"

	"foces/internal/matrix"
	"foces/internal/stats"
)

// Denominator selects the anomaly-index denominator statistic.
type Denominator int

// Denominator choices.
const (
	// DenomMedian is the paper's choice: AI = Err_max / Err_med. The
	// median is robust to the handful of large errors an anomaly
	// causes, keeping the denominator at the noise level.
	DenomMedian Denominator = iota + 1
	// DenomMean uses the mean instead (ablation): large anomaly errors
	// inflate the denominator and depress the index, weakening
	// detection — quantified in the AblationIndexDenominator test and
	// benchmark.
	DenomMean
)

func (d Denominator) String() string {
	switch d {
	case DenomMedian:
		return "median"
	case DenomMean:
		return "mean"
	default:
		return "unknown"
	}
}

// Options tunes detection.
type Options struct {
	// Threshold is the anomaly-index threshold T; zero selects the
	// paper's default 4.5.
	Threshold float64
	// ZeroTol is the absolute tolerance below which an error-vector
	// entry counts as zero; zero selects 1e-6·(1 + max|y|).
	ZeroTol float64
	// Denominator selects the index denominator; zero selects the
	// paper's median.
	Denominator Denominator
}

func (o Options) withDefaults(y []float64) Options {
	if o.Threshold == 0 {
		o.Threshold = stats.DefaultThreshold
	}
	if o.ZeroTol == 0 {
		maxAbs := 0.0
		for _, v := range y {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		o.ZeroTol = 1e-6 * (1 + maxAbs)
	}
	if o.Denominator == 0 {
		o.Denominator = DenomMedian
	}
	return o
}

// denominatorInto computes the configured denominator statistic of
// delta, using scratch as quickselect working storage for the median.
func (o Options) denominatorInto(scratch, delta []float64) float64 {
	switch o.Denominator {
	case DenomMean:
		m, _ := stats.Mean(delta)
		return m
	default:
		m, _ := stats.MedianInto(scratch, delta)
		return m
	}
}

// Result reports one detection run.
type Result struct {
	// Anomalous is true when Index > threshold (Algorithm 1 line 7).
	Anomalous bool
	// Index is the anomaly index AI = Err_max / Err_med; +Inf when the
	// median error is (numerically) zero but the max is not, 0 when the
	// whole error vector is zero.
	Index float64
	// ErrMax and ErrMed are the max and median of Δ.
	ErrMax, ErrMed float64
	// Delta is the error vector Δ = |Y' − Ŷ| (Eq. 5).
	Delta []float64
	// XHat is the least-squares volume estimate (Eq. 4).
	XHat []float64
	// YHat is the fitted counter vector H·X̂.
	YHat []float64
}

// Detect runs Algorithm 1 (Detect_Anomaly_Baseline) on the flow-counter
// matrix h and observed counter vector y. It builds a throwaway
// Detector, so factorization cost is paid on every call — loops that
// detect repeatedly against fixed rules should construct one Detector
// and reuse it.
func Detect(h *matrix.CSR, y []float64, opts Options) (Result, error) {
	if h.Rows() != len(y) {
		return Result{}, fmt.Errorf("core: H is %dx%d but y has %d entries", h.Rows(), h.Cols(), len(y))
	}
	d, err := NewDetector(h, opts)
	if err != nil {
		return Result{}, err
	}
	return d.Detect(y)
}

// anomalyIndex computes AI = Err_max/Err_med with numeric-zero
// handling: a perfectly consistent system scores 0 and a system whose
// median error vanishes while the max does not scores +Inf (the paper's
// Fig. 2 example).
func anomalyIndex(errMax, errMed, zeroTol float64) float64 {
	if errMax <= zeroTol {
		return 0
	}
	if errMed <= zeroTol {
		return math.Inf(1)
	}
	return errMax / errMed
}
