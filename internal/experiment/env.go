// Package experiment reproduces the paper's evaluation (§VI): Table I's
// topology inventory and the experiments behind Figs 7-12. Every
// experiment is deterministic under its configured seed and returns
// typed rows that cmd/focesbench renders as the paper's tables and
// curve series.
package experiment

import (
	"fmt"
	"math/rand"

	"foces"
	"foces/internal/collector"
	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/fcm"
	"foces/internal/header"
	"foces/internal/topo"
)

// Config describes one experiment environment.
type Config struct {
	// Topology is a topo.ByName name ("stanford", "fattree4", ...).
	Topology string
	// Mode is the rule-installation policy; zero selects PairExact,
	// which reproduces Table I's flow counts.
	Mode controller.PolicyMode
	// PacketsPerFlow is the per-flow offered volume per collection
	// interval; zero selects 1000.
	PacketsPerFlow uint64
	// NoiseSigma is additive Gaussian counter read noise (packets);
	// zero disables it.
	NoiseSigma float64
	// SkewSigma is the relative polling-skew noise: every switch's
	// counters are coherently scaled by (1 + U(−SkewSigma, SkewSigma)),
	// modelling non-atomic statistics collection across switches. Zero
	// selects the default 0.5% (≈±25 ms round jitter on a 5 s window); negative
	// disables skew.
	SkewSigma float64
	// LossSpread is the log-normal sigma of per-link loss heterogeneity
	// (congestion hotspots). Zero selects the default 0.5; negative
	// keeps loss uniform.
	LossSpread float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultSkewSigma is the default relative polling-skew noise.
const DefaultSkewSigma = 0.005

// DefaultLossSpread is the default per-link loss heterogeneity.
const DefaultLossSpread = 0.3

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = controller.PairExact
	}
	if c.PacketsPerFlow == 0 {
		c.PacketsPerFlow = 1000
	}
	if c.SkewSigma == 0 {
		c.SkewSigma = DefaultSkewSigma
	}
	if c.LossSpread == 0 {
		c.LossSpread = DefaultLossSpread
	}
	return c
}

// Env is a ready-to-measure environment: topology, installed data
// plane, FCM, slices and prepared detection engines (factored once at
// build so per-period scoring pays only solves).
type Env struct {
	Config   Config
	Topo     *topo.Topology
	Layout   *header.Layout
	Net      *dataplane.Network
	Control  *controller.Controller
	FCM      *fcm.FCM
	Slices   []core.Slice
	Detector *core.Detector
	Sliced   *core.SlicedDetector
	Rng      *rand.Rand

	traffic    dataplane.TrafficMatrix
	ruleSwitch []topo.SwitchID
	sys        *foces.System
}

// System wraps the environment's already-installed control and data
// plane as a foces.System, built lazily on first use: experiments
// exercising the unified Run API reuse the env's rules and traffic
// without a second bootstrap.
func (e *Env) System() (*foces.System, error) {
	if e.sys == nil {
		sys, err := foces.NewSystemFromParts(e.Topo, e.Layout, e.Control, e.Net, foces.DetectOptions{})
		if err != nil {
			return nil, err
		}
		e.sys = sys
	}
	return e.sys, nil
}

// NewEnv builds the environment for a configuration.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	t, err := topo.ByName(cfg.Topology)
	if err != nil {
		return nil, err
	}
	return NewEnvOn(cfg, t, nil)
}

// NewEnvOn builds an environment over an explicit topology; pairs
// restricts PairExact rules to a flow subset (nil = all ordered pairs).
func NewEnvOn(cfg Config, t *topo.Topology, pairs [][2]topo.HostID) (*Env, error) {
	cfg = cfg.withDefaults()
	layout := header.FiveTuple()
	ctrl, err := controller.New(t, layout, cfg.Mode)
	if err != nil {
		return nil, err
	}
	if pairs == nil {
		err = ctrl.ComputeRules()
	} else {
		err = ctrl.ComputeRulesForPairs(pairs)
	}
	if err != nil {
		return nil, err
	}
	net := dataplane.NewNetwork(t, layout)
	if err := ctrl.Install(net); err != nil {
		return nil, err
	}
	f, err := fcm.Generate(t, layout, ctrl.Rules())
	if err != nil {
		return nil, err
	}
	slices, err := core.BuildSlices(f)
	if err != nil {
		return nil, err
	}
	detector, err := core.NewDetector(f.H, core.Options{})
	if err != nil {
		return nil, err
	}
	sliced, err := core.NewSlicedDetector(slices, f.NumRules(), core.Options{})
	if err != nil {
		return nil, err
	}
	if cfg.LossSpread > 0 {
		if err := net.SetLossSpread(cfg.LossSpread); err != nil {
			return nil, err
		}
	}
	env := &Env{
		Config:   cfg,
		Topo:     t,
		Layout:   layout,
		Net:      net,
		Control:  ctrl,
		FCM:      f,
		Slices:   slices,
		Detector: detector,
		Sliced:   sliced,
		Rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	env.ruleSwitch = make([]topo.SwitchID, len(f.Rules))
	for i, r := range f.Rules {
		env.ruleSwitch[i] = r.Switch
	}
	if pairs == nil {
		env.traffic = dataplane.UniformTraffic(t, cfg.PacketsPerFlow)
	} else {
		env.traffic = make(dataplane.TrafficMatrix, len(pairs))
		for _, p := range pairs {
			env.traffic[dataplane.FlowKey{Src: p[0], Dst: p[1]}] = cfg.PacketsPerFlow
		}
	}
	return env, nil
}

// Observe simulates one collection interval under the given loss rate
// and currently applied attacks, returning the observed counter vector
// Y' (with configured read noise applied).
func (e *Env) Observe(loss float64) ([]float64, error) {
	if err := e.Net.SetLinkLoss(loss); err != nil {
		return nil, err
	}
	e.Net.ResetCounters()
	if _, err := e.Net.Run(e.Rng, e.traffic); err != nil {
		return nil, err
	}
	y := e.FCM.CounterVector(e.Net.CollectCounters())
	if e.Config.SkewSigma > 0 {
		y, err := collector.ApplySkew(y, e.ruleSwitch, e.Config.SkewSigma, e.Rng)
		if err != nil {
			return nil, err
		}
		if e.Config.NoiseSigma > 0 {
			y = collector.ApplyNoise(y, e.Config.NoiseSigma, e.Rng)
		}
		return y, nil
	}
	if e.Config.NoiseSigma > 0 {
		y = collector.ApplyNoise(y, e.Config.NoiseSigma, e.Rng)
	}
	return y, nil
}

// Score runs one observation and returns the baseline anomaly index,
// using the engine prepared at build time.
func (e *Env) Score(loss float64) (float64, error) {
	y, err := e.Observe(loss)
	if err != nil {
		return 0, err
	}
	res, err := e.Detector.Detect(y)
	if err != nil {
		return 0, err
	}
	return res.Index, nil
}

// ScoreSliced runs one observation and returns the maximum per-slice
// anomaly index, using the engine prepared at build time.
func (e *Env) ScoreSliced(loss float64) (float64, error) {
	y, err := e.Observe(loss)
	if err != nil {
		return 0, err
	}
	out, err := e.Sliced.Detect(y)
	if err != nil {
		return 0, err
	}
	return out.MaxIndex(), nil
}

// ApplyRandomAttacks draws and applies count distinct port-swap
// attacks, returning them for later revert.
func (e *Env) ApplyRandomAttacks(count int) ([]dataplane.Attack, error) {
	attacks, err := dataplane.RandomAttacks(e.Rng, e.Net, dataplane.AttackPortSwap, count)
	if err != nil {
		return nil, err
	}
	for _, a := range attacks {
		if err := a.Apply(e.Net); err != nil {
			return nil, err
		}
	}
	return attacks, nil
}

// RevertAttacks repairs previously applied attacks.
func (e *Env) RevertAttacks(attacks []dataplane.Attack) error {
	for _, a := range attacks {
		if err := a.Revert(e.Net); err != nil {
			return err
		}
	}
	return nil
}

// String summarizes the environment.
func (e *Env) String() string {
	return fmt.Sprintf("%s mode=%v flows=%d rules=%d",
		e.Topo.Name(), e.Config.Mode, e.FCM.NumFlows(), e.FCM.NumRules())
}
