package experiment

import (
	"fmt"
	"math"
	"time"

	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/oracle"
	"foces/internal/stats"
	"foces/internal/topo"
)

// TopologyRow is one row of Table I.
type TopologyRow struct {
	Name     string
	Switches int
	Hosts    int
	Flows    int
	Rules    int
}

// TableI reproduces Table I: the four evaluation topologies with their
// switch, host, flow and rule counts under the configured policy mode.
func TableI(cfg Config) ([]TopologyRow, error) {
	rows := make([]TopologyRow, 0, 4)
	for _, name := range topo.EvaluationTopologies() {
		c := cfg
		c.Topology = name
		env, err := NewEnv(c)
		if err != nil {
			return nil, fmt.Errorf("experiment: table1 %s: %w", name, err)
		}
		rows = append(rows, TopologyRow{
			Name:     env.Topo.Name(),
			Switches: env.Topo.NumSwitches(),
			Hosts:    env.Topo.NumHosts(),
			Flows:    env.FCM.NumFlows(),
			Rules:    env.FCM.NumRules(),
		})
	}
	return rows, nil
}

// FunctionalConfig drives Experiment 1 (Fig. 7): a timeline where one
// rule is modified mid-run and repaired later, detected every period.
type FunctionalConfig struct {
	Config
	// Losses are the packet loss rates to overlay; default {0, 5%, 10%}.
	Losses []float64
	// DurationSec, PeriodSec, AttackStartSec, AttackEndSec describe the
	// timeline; defaults 180/5/60/120 (the paper's setup).
	DurationSec, PeriodSec       int
	AttackStartSec, AttackEndSec int
}

func (c FunctionalConfig) withDefaults() FunctionalConfig {
	if c.Topology == "" {
		c.Topology = "bcube14"
	}
	if len(c.Losses) == 0 {
		c.Losses = []float64{0, 0.05, 0.10}
	}
	if c.DurationSec == 0 {
		c.DurationSec = 180
	}
	if c.PeriodSec == 0 {
		c.PeriodSec = 5
	}
	if c.AttackStartSec == 0 {
		c.AttackStartSec = 60
	}
	if c.AttackEndSec == 0 {
		c.AttackEndSec = 120
	}
	return c
}

// FunctionalPoint is one detection of the Fig. 7 timeline.
type FunctionalPoint struct {
	Loss         float64
	TimeSec      int
	Index        float64
	AttackActive bool
}

// Functional reproduces Experiment 1 (Fig. 7).
func Functional(cfg FunctionalConfig) ([]FunctionalPoint, error) {
	cfg = cfg.withDefaults()
	var out []FunctionalPoint
	for li, loss := range cfg.Losses {
		c := cfg.Config
		c.Seed = cfg.Seed + int64(li)*1000
		env, err := NewEnv(c)
		if err != nil {
			return nil, err
		}
		var active []dataplane.Attack
		for ts := cfg.PeriodSec; ts <= cfg.DurationSec; ts += cfg.PeriodSec {
			if ts > cfg.AttackStartSec && ts <= cfg.AttackEndSec && active == nil {
				active, err = env.ApplyRandomAttacks(1)
				if err != nil {
					return nil, err
				}
			}
			if ts > cfg.AttackEndSec && active != nil {
				if err := env.RevertAttacks(active); err != nil {
					return nil, err
				}
				active = nil
			}
			idx, err := env.Score(loss)
			if err != nil {
				return nil, err
			}
			out = append(out, FunctionalPoint{
				Loss:         loss,
				TimeSec:      ts,
				Index:        idx,
				AttackActive: active != nil,
			})
		}
	}
	return out, nil
}

// ROCConfig drives Experiment 2 (Fig. 8).
type ROCConfig struct {
	Config
	// Losses default to {0, 5, 10, 15, 20, 25}%.
	Losses []float64
	// Runs is the number of positive and negative observations per
	// loss; default 30.
	Runs int
	// Thresholds default to 1..100 (the paper's sweep).
	Thresholds []float64
}

func (c ROCConfig) withDefaults() ROCConfig {
	if len(c.Losses) == 0 {
		c.Losses = []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25}
	}
	if c.Runs == 0 {
		c.Runs = 30
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = stats.LinSpace(1, 100, 100)
	}
	return c
}

// ROCSeries is one loss rate's ROC curve.
type ROCSeries struct {
	Loss   float64
	Points []stats.ROCPoint
	AUC    float64
}

// ROC reproduces Experiment 2 (Fig. 8) for one topology: ROC curves of
// the baseline detector under increasing packet loss, one rule
// modified per positive observation.
func ROC(cfg ROCConfig) ([]ROCSeries, error) {
	cfg = cfg.withDefaults()
	env, err := NewEnv(cfg.Config)
	if err != nil {
		return nil, err
	}
	out := make([]ROCSeries, 0, len(cfg.Losses))
	for _, loss := range cfg.Losses {
		samples, err := gatherSamples(env, loss, 1, cfg.Runs, false)
		if err != nil {
			return nil, err
		}
		points := stats.ROC(samples, cfg.Thresholds)
		out = append(out, ROCSeries{Loss: loss, Points: points, AUC: stats.AUC(points)})
	}
	return out, nil
}

// gatherSamples collects runs positive (attacked) and runs negative
// (clean) scored observations at the given loss. sliced selects the
// per-slice max index as the score.
func gatherSamples(env *Env, loss float64, attackCount, runs int, sliced bool) ([]stats.Sample, error) {
	score := env.Score
	if sliced {
		score = env.ScoreSliced
	}
	samples := make([]stats.Sample, 0, 2*runs)
	for i := 0; i < runs; i++ {
		idx, err := score(loss)
		if err != nil {
			return nil, err
		}
		samples = append(samples, stats.Sample{Score: idx, Positive: false})
		attacks, err := env.ApplyRandomAttacks(attackCount)
		if err != nil {
			return nil, err
		}
		idx, err = score(loss)
		if err != nil {
			return nil, err
		}
		if rerr := env.RevertAttacks(attacks); rerr != nil {
			return nil, rerr
		}
		samples = append(samples, stats.Sample{Score: idx, Positive: true})
	}
	return samples, nil
}

// gatherPairedSamples scores each observation with BOTH detectors so
// baseline/sliced comparisons see identical traffic.
func gatherPairedSamples(env *Env, loss float64, attackCount, runs int) (baseline, sliced []stats.Sample, err error) {
	observe := func(positive bool) error {
		y, err := env.Observe(loss)
		if err != nil {
			return err
		}
		res, err := core.Detect(env.FCM.H, y, core.Options{})
		if err != nil {
			return err
		}
		sl, err := core.DetectSliced(env.Slices, y, core.Options{})
		if err != nil {
			return err
		}
		baseline = append(baseline, stats.Sample{Score: res.Index, Positive: positive})
		sliced = append(sliced, stats.Sample{Score: sl.MaxIndex(), Positive: positive})
		return nil
	}
	for i := 0; i < runs; i++ {
		if err := observe(false); err != nil {
			return nil, nil, err
		}
		attacks, err := env.ApplyRandomAttacks(attackCount)
		if err != nil {
			return nil, nil, err
		}
		if err := observe(true); err != nil {
			return nil, nil, err
		}
		if err := env.RevertAttacks(attacks); err != nil {
			return nil, nil, err
		}
	}
	return baseline, sliced, nil
}

// PrecisionConfig drives Experiment 3 (Fig. 9).
type PrecisionConfig struct {
	Config
	// Losses default to {0, 5, 10, 15, 20, 25}%.
	Losses []float64
	// RuleCounts default to {1, 2, 3} modified rules.
	RuleCounts []int
	// Runs per point; default 50 (the paper's count).
	Runs int
	// Threshold defaults to 3.5 (the paper's Experiment 3 setting).
	Threshold float64
}

func (c PrecisionConfig) withDefaults() PrecisionConfig {
	if len(c.Losses) == 0 {
		c.Losses = []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25}
	}
	if len(c.RuleCounts) == 0 {
		c.RuleCounts = []int{1, 2, 3}
	}
	if c.Runs == 0 {
		c.Runs = 50
	}
	if c.Threshold == 0 {
		c.Threshold = 3.5
	}
	return c
}

// PrecisionPoint is one Fig. 9 data point.
type PrecisionPoint struct {
	Loss          float64
	ModifiedRules int
	Precision     float64
	Confusion     stats.Confusion
}

// Precision reproduces Experiment 3 (Fig. 9): detection precision
// TP/(TP+FP) versus packet loss for 1-3 modified rules at T=3.5.
func Precision(cfg PrecisionConfig) ([]PrecisionPoint, error) {
	cfg = cfg.withDefaults()
	env, err := NewEnv(cfg.Config)
	if err != nil {
		return nil, err
	}
	var out []PrecisionPoint
	for _, k := range cfg.RuleCounts {
		for _, loss := range cfg.Losses {
			samples, err := gatherSamples(env, loss, k, cfg.Runs, false)
			if err != nil {
				return nil, err
			}
			c := stats.Evaluate(samples, cfg.Threshold)
			out = append(out, PrecisionPoint{
				Loss:          loss,
				ModifiedRules: k,
				Precision:     c.Precision(),
				Confusion:     c,
			})
		}
	}
	return out, nil
}

// SlicingConfig drives Experiment 4's accuracy side (Figs. 10 and 11).
type SlicingConfig struct {
	Config
	// Topologies default to all four evaluation topologies.
	Topologies []string
	// Loss defaults to 10% (where baseline and slicing separate).
	Loss float64
	// Runs per topology; default 30.
	Runs int
	// Thresholds default to 0..100 in steps of 1 (Fig. 11's sweep).
	Thresholds []float64
}

func (c SlicingConfig) withDefaults() SlicingConfig {
	if len(c.Topologies) == 0 {
		c.Topologies = topo.EvaluationTopologies()
	}
	if c.Loss == 0 {
		c.Loss = 0.10
	}
	if c.Runs == 0 {
		c.Runs = 30
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = stats.LinSpace(0, 100, 101)
	}
	return c
}

// ThresholdAccuracy is one Fig. 11 point: detection accuracy at one
// threshold, baseline vs sliced.
type ThresholdAccuracy struct {
	Threshold float64
	Baseline  float64
	Sliced    float64
}

// SlicingResult is one topology's Fig. 10/11 outcome.
type SlicingResult struct {
	Topology string
	// Curve is the Fig. 11 accuracy-vs-threshold sweep.
	Curve []ThresholdAccuracy
	// Optimal operating points (Fig. 10's bars).
	OptBaselineThreshold, OptBaselineAccuracy float64
	OptSlicedThreshold, OptSlicedAccuracy     float64
}

// Slicing reproduces Experiment 4's accuracy comparison (Figs. 10-11):
// baseline vs sliced detection accuracy across thresholds, per
// topology, with one rule modified per positive observation.
func Slicing(cfg SlicingConfig) ([]SlicingResult, error) {
	cfg = cfg.withDefaults()
	var out []SlicingResult
	for ti, name := range cfg.Topologies {
		c := cfg.Config
		c.Topology = name
		c.Seed = cfg.Seed + int64(ti)*7919
		env, err := NewEnv(c)
		if err != nil {
			return nil, err
		}
		baseSamples, slicedSamples, err := gatherPairedSamples(env, cfg.Loss, 1, cfg.Runs)
		if err != nil {
			return nil, err
		}
		res := SlicingResult{Topology: name}
		for _, th := range cfg.Thresholds {
			b := stats.Evaluate(baseSamples, th).Accuracy()
			s := stats.Evaluate(slicedSamples, th).Accuracy()
			res.Curve = append(res.Curve, ThresholdAccuracy{Threshold: th, Baseline: b, Sliced: s})
			if b > res.OptBaselineAccuracy {
				res.OptBaselineAccuracy, res.OptBaselineThreshold = b, th
			}
			if s > res.OptSlicedAccuracy {
				res.OptSlicedAccuracy, res.OptSlicedThreshold = s, th
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// ScalingConfig drives Experiment 4's performance side (Fig. 12).
type ScalingConfig struct {
	Config
	// FlowCounts are the flow-set sizes to sweep; default
	// {240, 480, 960, 1920}. The paper sweeps to 12K flows on a 3.5 GHz
	// desktop; the sweep here is smaller but preserves the growth
	// shape (see DESIGN.md's substitution notes).
	FlowCounts []int
	// Repeats per timing point; default 3 (median reported).
	Repeats int
}

func (c ScalingConfig) withDefaults() ScalingConfig {
	if c.Topology == "" {
		c.Topology = "fattree8"
	}
	if len(c.FlowCounts) == 0 {
		c.FlowCounts = []int{240, 480, 960, 1920}
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	return c
}

// ScalingPoint is one Fig. 12 data point.
type ScalingPoint struct {
	Flows, Rules   int
	BaselineSecs   float64
	SlicedSecs     float64
	SliceBuildSecs float64
}

// Scaling reproduces Experiment 4's computation-time comparison
// (Fig. 12): detection time versus number of flows, baseline vs
// slicing, on FatTree(8).
func Scaling(cfg ScalingConfig) ([]ScalingPoint, error) {
	cfg = cfg.withDefaults()
	t, err := topo.ByName(cfg.Topology)
	if err != nil {
		return nil, err
	}
	var out []ScalingPoint
	for _, k := range cfg.FlowCounts {
		pairs, err := PairSubset(t, k)
		if err != nil {
			return nil, err
		}
		env, err := NewEnvOn(cfg.Config, t, pairs)
		if err != nil {
			return nil, err
		}
		y, err := env.Observe(0)
		if err != nil {
			return nil, err
		}
		point := ScalingPoint{Flows: env.FCM.NumFlows(), Rules: env.FCM.NumRules()}
		point.BaselineSecs = medianSeconds(cfg.Repeats, func() error {
			// Fig. 12's baseline is the paper's algorithm as written:
			// HᵀH formed densely and factored in O(N³) by the oracle,
			// not the prepared engines' sparse factor.
			_, err := oracle.DenseDetect(env.FCM.H, y, core.Options{})
			return err
		})
		point.SlicedSecs = medianSeconds(cfg.Repeats, func() error {
			_, err := core.DetectSliced(env.Slices, y, core.Options{})
			return err
		})
		point.SliceBuildSecs = medianSeconds(cfg.Repeats, func() error {
			_, err := core.BuildSlices(env.FCM)
			return err
		})
		out = append(out, point)
	}
	return out, nil
}

// PairSubset deterministically enumerates the first k ordered host
// pairs of a topology (source-major order, skipping self pairs).
func PairSubset(t *topo.Topology, k int) ([][2]topo.HostID, error) {
	maxPairs := t.NumHosts() * (t.NumHosts() - 1)
	if k < 1 || k > maxPairs {
		return nil, fmt.Errorf("experiment: %d flows outside [1, %d] for %s", k, maxPairs, t.Name())
	}
	pairs := make([][2]topo.HostID, 0, k)
	for _, src := range t.Hosts() {
		for _, dst := range t.Hosts() {
			if src.ID == dst.ID {
				continue
			}
			pairs = append(pairs, [2]topo.HostID{src.ID, dst.ID})
			if len(pairs) == k {
				return pairs, nil
			}
		}
	}
	return pairs, nil
}

func medianSeconds(repeats int, fn func() error) float64 {
	times := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return math.NaN()
		}
		times = append(times, time.Since(start).Seconds())
	}
	med, err := stats.Median(times)
	if err != nil {
		return math.NaN()
	}
	return med
}
