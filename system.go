package foces

import (
	"fmt"
	"io"
	"math/rand"
	"sync"

	"foces/internal/churn"
	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/header"
	"foces/internal/persist"
	"foces/internal/telemetry"
)

// LoadBaseline restores a baseline written by System.SaveBaseline and
// regenerates its FCM.
func LoadBaseline(r io.Reader) (*FCM, *Topology, *HeaderLayout, []Rule, error) {
	return persist.Load(r)
}

// System bundles the full FOCES pipeline over one network: topology,
// controller-installed rules, simulated data plane, flow-counter
// matrix and per-switch slices. It is the high-level entry point for
// applications; the underlying pieces remain accessible for anything
// bespoke.
type System struct {
	topology *Topology
	layout   *HeaderLayout
	control  *Controller
	network  *Network
	fcm      *FCM
	slices   []Slice
	detector *Detector
	sliced   *SlicedDetector

	// churnMgr owns the epoch-versioned baseline; fcm/slices/sliced are
	// views of its current generation.
	churnMgr *churn.Manager

	// baselineMu serializes baseline swaps (ObserveUpdate /
	// RebuildBaseline) against in-flight detections: Serve consumes
	// windows on its own goroutine, so a churn feed can land while a
	// Run is mid-window. Detections share a read lock —
	// concurrent Runs against one baseline stay parallel.
	baselineMu sync.RWMutex

	// opts are the detection options fixed at construction — baked into
	// the prepared engines and inherited by Run observations that leave
	// Options zero.
	opts DetectOptions

	// Telemetry wiring (nil until EnableTelemetry): metric sets the
	// engines record into, the label-resolved system-level recorder,
	// and the recent-verdict ring behind RecentRuns.
	detTel   *telemetry.DetectionMetrics
	churnTel *telemetry.ChurnMetrics
	sysRec   *sysRecorder
	probeRec *probeRecorder
	events   *telemetry.Ring[RunEvent]
	wirings  map[*telemetry.Registry]*telWiring

	// Hot-path recycling: counter vectors built from Observation.Counters
	// go back on this free list instead of the garbage collector. A
	// mutex-guarded slice rather than sync.Pool because Put of a slice value would re-box it (one
	// allocation per release — the thing being avoided).
	scratchMu sync.Mutex
	vecFree   [][]float64
}

// NewSystem computes and installs rules for the topology under the
// given policy mode, generates the FCM from controller intent, and
// prepares slices and detection engines (factorizations are computed
// here, once; each detection period then costs only triangular solves).
func NewSystem(t *Topology, mode PolicyMode) (*System, error) {
	layout := header.FiveTuple()
	ctrl, network, err := controller.Bootstrap(t, layout, mode)
	if err != nil {
		return nil, fmt.Errorf("foces: bootstrap: %w", err)
	}
	s := &System{topology: t, layout: layout, control: ctrl, network: network}
	if err := s.rebuildBaseline(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewSystemFromParts assembles a System around an already-bootstrapped
// control and data plane — for applications (like the focesd monitor)
// that build their topology, controller and network by hand — and bakes
// opts into the prepared engines, so every Run inherits them without
// per-call plumbing. The controller's rules must already be installed
// on the network; no installation is performed here.
func NewSystemFromParts(t *Topology, layout *HeaderLayout, ctrl *Controller, network *Network, opts DetectOptions) (*System, error) {
	if t == nil || layout == nil || ctrl == nil || network == nil {
		return nil, fmt.Errorf("foces: NewSystemFromParts: nil part")
	}
	s := &System{topology: t, layout: layout, control: ctrl, network: network, opts: opts}
	if err := s.rebuildBaseline(); err != nil {
		return nil, err
	}
	return s, nil
}

// NewSystemWithPairs is NewSystem restricted to an explicit set of
// (src, dst) host pairs under the PairExact policy — the knob behind
// flow-count scaling studies (Fig. 12).
func NewSystemWithPairs(t *Topology, pairs [][2]HostID) (*System, error) {
	layout := header.FiveTuple()
	ctrl, err := controller.New(t, layout, PairExact)
	if err != nil {
		return nil, err
	}
	if err := ctrl.ComputeRulesForPairs(pairs); err != nil {
		return nil, err
	}
	network := dataplane.NewNetwork(t, layout)
	if err := ctrl.Install(network); err != nil {
		return nil, err
	}
	s := &System{topology: t, layout: layout, control: ctrl, network: network}
	if err := s.rebuildBaseline(); err != nil {
		return nil, err
	}
	return s, nil
}

// baselineCurrent reports whether the baseline was built from exactly
// the controller's current rule set: the FCM's rows are that rule set
// spread over the ID space, so the check is a rule-by-rule comparison.
func (s *System) baselineCurrent() bool {
	if s.fcm == nil || s.control.RuleSpace() != len(s.fcm.Rules) {
		return false
	}
	rules := s.control.Rules()
	live := 0
	for _, r := range s.fcm.Rules {
		if r.Switch >= 0 {
			live++
		}
	}
	if live != len(rules) {
		return false
	}
	for _, r := range rules {
		b := s.fcm.Rules[r.ID]
		if b.Switch != r.Switch || b.Priority != r.Priority || b.Action != r.Action || !b.Match.Equal(r.Match) {
			return false
		}
	}
	return true
}

// rebuildBaseline regenerates everything derived from the controller's
// current rule set: the churn manager (FCM, slices, prepared sliced
// engine) and the full-matrix engine.
func (s *System) rebuildBaseline() error {
	mgr, err := churn.NewManager(s.topology, s.layout, s.control.Rules(), s.control.RuleSpace(), s.opts, churn.Config{})
	if err != nil {
		return fmt.Errorf("foces: baseline: %w", err)
	}
	if s.detTel != nil || s.churnTel != nil {
		mgr.SetTelemetry(s.detTel, s.churnTel)
	}
	detector, err := mgr.Full()
	if err != nil {
		return fmt.Errorf("foces: detector: %w", err)
	}
	s.churnMgr = mgr
	s.fcm = mgr.FCM()
	s.slices = mgr.Slices()
	s.detector = detector
	s.sliced = mgr.Sliced()
	return nil
}

// RebuildBaseline invalidates and regenerates the detection baseline —
// FCM, slices and the prepared engines — from the controller's current
// rules. Call it after any rule change (recomputed policies, reactive
// installs, repairs): detection against a stale baseline checks the
// wrong intent and will flag honest switches.
//
// When the installed rule set is the one the baseline was built from
// (compared rule by rule), the call is a no-op — callers may invoke it
// defensively on every cycle without paying regeneration. Prefer
// ApplyUpdate for incremental changes: it re-traces only affected
// sources instead of rebuilding from scratch.
func (s *System) RebuildBaseline() error {
	s.baselineMu.Lock()
	defer s.baselineMu.Unlock()
	if s.baselineCurrent() {
		return nil
	}
	return s.rebuildBaseline()
}

// ObserveCountersFor simulates one collection interval restricted to
// the given traffic matrix.
func (s *System) ObserveCountersFor(rng *rand.Rand, tm TrafficMatrix) ([]float64, error) {
	s.network.ResetCounters()
	if _, err := s.network.Run(rng, tm); err != nil {
		return nil, err
	}
	return s.fcm.CounterVector(s.network.CollectCounters()), nil
}

// Topology returns the system's topology.
func (s *System) Topology() *Topology { return s.topology }

// Layout returns the header layout used for matches.
func (s *System) Layout() *HeaderLayout { return s.layout }

// Controller returns the control plane.
func (s *System) Controller() *Controller { return s.control }

// Network returns the simulated data plane.
func (s *System) Network() *Network { return s.network }

// FCM returns the flow-counter matrix.
func (s *System) FCM() *FCM { return s.fcm }

// Slices returns the per-switch sub-FCMs.
func (s *System) Slices() []Slice { return s.slices }

// ObserveCounters simulates one collection interval of uniform traffic
// and returns the counter vector Y' (indexed by rule ID). Counters are
// reset first, so each call is an independent window.
func (s *System) ObserveCounters(rng *rand.Rand, packetsPerFlow uint64) ([]float64, error) {
	s.network.ResetCounters()
	if _, err := s.network.Run(rng, dataplane.UniformTraffic(s.topology, packetsPerFlow)); err != nil {
		return nil, err
	}
	return s.fcm.CounterVector(s.network.CollectCounters()), nil
}

// CounterVector converts a rule-ID keyed counter snapshot (e.g. from a
// live collector) into the ordered vector Y'. A counter whose rule ID
// falls outside the baseline's rule space is an error: it means the
// snapshot and the baseline disagree about the installed rule set
// (typically a stale baseline — rebuild or reconcile first), and
// silently dropping the sample would hide exactly the inconsistency
// FOCES exists to detect.
func (s *System) CounterVector(counters map[int]uint64) ([]float64, error) {
	space := s.fcm.NumRules()
	for id := range counters {
		if id < 0 || id >= space {
			return nil, fmt.Errorf("foces: counter for rule %d outside the baseline's %d-rule space (snapshot from a different rule generation?)", id, space)
		}
	}
	return s.fcm.CounterVector(counters), nil
}

// fullDetector returns the Algorithm 1 engine for the current epoch.
// After ApplyUpdate the engine is stale and rebuilt lazily here (the
// churn manager caches it per epoch), keeping the update path itself
// free of the O(n³) global factorization. The manager's cache is the
// only store — writing a System field here would race with the
// concurrent detections sharing baselineMu's read side.
func (s *System) fullDetector() (*Detector, error) {
	if s.churnMgr == nil {
		return s.detector, nil
	}
	return s.churnMgr.Full()
}

// Detect runs Algorithm 1 on the counter vector via the prepared
// engine.
//
// Deprecated: use Run with an Observation in ModeFull; Run dispatches
// every detection path through one entry point and returns a unified
// Report. Detect remains as a thin wrapper.
func (s *System) Detect(y []float64, opts DetectOptions) (Result, error) {
	rep, err := s.Run(Observation{Vector: y, RunOptions: RunOptions{Epoch: s.Epoch(), Mode: ModeFull, Options: opts}})
	if err != nil {
		return Result{}, err
	}
	return *rep.Full, nil
}

// DetectSliced runs Algorithm 2 with per-switch localization via the
// prepared sliced engine.
//
// Deprecated: use Run with an Observation in ModeSliced. DetectSliced
// remains as a thin wrapper.
func (s *System) DetectSliced(y []float64, opts DetectOptions) (SlicedOutcome, error) {
	rep, err := s.Run(Observation{Vector: y, RunOptions: RunOptions{Epoch: s.Epoch(), Mode: ModeSliced, Options: opts}})
	if err != nil {
		return SlicedOutcome{}, err
	}
	return *rep.Sliced, nil
}

// Detector returns the prepared baseline detection engine (rebuilt
// lazily if rule updates made it stale).
func (s *System) Detector() *Detector {
	if d, err := s.fullDetector(); err == nil {
		return d
	}
	return s.detector
}

// SlicedDetector returns the prepared sliced detection engine.
func (s *System) SlicedDetector() *SlicedDetector { return s.sliced }

// ApplyUpdate incrementally folds a batch of rule changes — already
// applied to the controller — into the detection baseline, advancing
// the churn epoch: the data-plane tables are patched, only sources
// whose forwarding touched the changed switches are re-traced, and
// per-switch engines are reused or rank-one-repaired where the slice
// structure permits. The full-matrix engine goes stale and is rebuilt
// lazily on the next Detect. Prefer the AddRule/RemoveRule/ModifyRule
// wrappers, which drive the controller and this method together.
func (s *System) ApplyUpdate(events []RuleChange) (ChurnUpdate, error) {
	for _, e := range events {
		tbl, err := s.network.Table(e.Rule.Switch)
		if err != nil {
			return ChurnUpdate{}, fmt.Errorf("foces: apply update: %w", err)
		}
		switch e.Op {
		case controller.RuleRemoved:
			if err := tbl.Remove(e.Rule.ID); err != nil {
				return ChurnUpdate{}, fmt.Errorf("foces: apply update: %w", err)
			}
		case controller.RuleModified:
			if err := tbl.Modify(e.Rule); err != nil {
				return ChurnUpdate{}, fmt.Errorf("foces: apply update: %w", err)
			}
		case controller.RuleAdded:
			if err := tbl.Install(e.Rule); err != nil {
				return ChurnUpdate{}, fmt.Errorf("foces: apply update: %w", err)
			}
		}
	}
	return s.ObserveUpdate(events)
}

// ObserveUpdate folds a batch of rule changes into the detection
// baseline without touching the data plane — for monitors whose rule
// changes reach the switches through their own control channel (e.g.
// focesd's flow-mod clients) and only need the baseline to follow.
// ApplyUpdate is ObserveUpdate plus the table patching.
func (s *System) ObserveUpdate(events []RuleChange) (ChurnUpdate, error) {
	s.baselineMu.Lock()
	defer s.baselineMu.Unlock()
	u, err := s.churnMgr.Apply(events)
	if err != nil {
		return ChurnUpdate{}, err
	}
	s.fcm = s.churnMgr.FCM()
	s.slices = s.churnMgr.Slices()
	s.sliced = s.churnMgr.Sliced()
	return u, nil
}

// AddRule installs a rule live: the controller allocates a fresh
// never-reused ID, the data plane installs it, and the baseline is
// updated incrementally.
func (s *System) AddRule(sw SwitchID, priority int, match HeaderSpace, act Action) (Rule, ChurnUpdate, error) {
	r, err := s.control.AddRule(sw, priority, match, act)
	if err != nil {
		return Rule{}, ChurnUpdate{}, err
	}
	u, err := s.ApplyUpdate([]RuleChange{{Op: controller.RuleAdded, Rule: r}})
	return r, u, err
}

// RemoveRule removes a rule live; its ID is retired permanently and its
// FCM row becomes a placeholder.
func (s *System) RemoveRule(id int) (ChurnUpdate, error) {
	r, err := s.control.RemoveRule(id)
	if err != nil {
		return ChurnUpdate{}, err
	}
	return s.ApplyUpdate([]RuleChange{{Op: controller.RuleRemoved, Rule: r}})
}

// ModifyRule rewrites a live rule in place (same switch, same ID) and
// updates the baseline incrementally.
func (s *System) ModifyRule(id, priority int, match HeaderSpace, act Action) (ChurnUpdate, error) {
	prev, ok := s.control.Rule(id)
	if !ok {
		return ChurnUpdate{}, fmt.Errorf("foces: modify rule: unknown rule %d", id)
	}
	r, err := s.control.ModifyRule(id, priority, match, act)
	if err != nil {
		return ChurnUpdate{}, err
	}
	return s.ApplyUpdate([]RuleChange{{Op: controller.RuleModified, Rule: r, Prev: prev}})
}

// Epoch reports the baseline's churn epoch (0 until the first update
// after the last full rebuild).
func (s *System) Epoch() uint64 { return s.churnMgr.Epoch() }

// ChurnStats returns cumulative incremental-maintenance statistics.
func (s *System) ChurnStats() ChurnStats { return s.churnMgr.Stats() }

// ChurnLog returns the epoch log, oldest first.
func (s *System) ChurnLog() []ChurnUpdate { return s.churnMgr.Updates() }

// ChurnManager exposes the epoch-versioned baseline owner, which
// carries the per-slice replication state (churn.ReplicaStates) a
// cluster coordinator ships to detector nodes.
func (s *System) ChurnManager() *churn.Manager { return s.churnMgr }

// AffectedSince returns the rule rows changed by updates applied after
// epoch `since` — the rows a counter window with a baseline snapshot
// from that epoch must mask.
func (s *System) AffectedSince(since uint64) []int { return s.churnMgr.AffectedSince(since) }

// DetectReconciled runs sliced detection on a counter window whose
// baseline snapshot was taken at epoch `from`: rule rows changed by the
// updates the window straddles are masked out of the equation system,
// so mid-window rule churn is reconciled instead of read as a
// forwarding anomaly.
//
// Deprecated: use Run with Observation.Epoch set to the window's
// snapshot epoch. DetectReconciled remains as a thin wrapper.
func (s *System) DetectReconciled(y []float64, from uint64) (SlicedOutcome, error) {
	// A pre-churn window is legitimately short of newly added rules;
	// Run's clean path (from == current epoch) rejects short vectors, so
	// pad here to preserve the legacy contract on both paths.
	if space := s.fcm.NumRules(); len(y) < space {
		padded := make([]float64, space)
		copy(padded, y)
		y = padded
	}
	rep, err := s.Run(Observation{Vector: y, RunOptions: RunOptions{Epoch: from, Mode: ModeSliced}})
	if err != nil {
		return SlicedOutcome{}, err
	}
	return *rep.Sliced, nil
}

// InjectRandomAttack draws, applies and returns a random attack of the
// given kind (for experiments and drills). Revert with
// Attack.Revert(sys.Network()).
func (s *System) InjectRandomAttack(rng *rand.Rand, kind AttackKind) (Attack, error) {
	atk, err := dataplane.RandomAttack(rng, s.network, kind)
	if err != nil {
		return Attack{}, err
	}
	if err := atk.Apply(s.network); err != nil {
		return Attack{}, err
	}
	return atk, nil
}

// AnalyzeDetectability evaluates a hypothetical anomaly against this
// system's FCM.
func (s *System) AnalyzeDetectability(hPrime []int) (Detectability, error) {
	return core.AnalyzeDetectability(s.fcm, hPrime)
}

// SaveBaseline writes the system's detection baseline (topology,
// header layout, rules) as a self-contained JSON document that
// LoadBaseline can restore — e.g. to cache FCM generation across
// restarts or ship a baseline to an offline analyzer.
func (s *System) SaveBaseline(w io.Writer) error {
	return persist.Save(w, s.topology, s.layout, s.control.Rules())
}

// String summarizes the system.
func (s *System) String() string {
	return fmt.Sprintf("foces.System(%s, %v, %d flows, %d rules, %d slices)",
		s.topology.Name(), s.control.Mode(), s.fcm.NumFlows(), s.fcm.NumRules(), len(s.slices))
}
