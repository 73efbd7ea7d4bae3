// Package foces is a network-wide forwarding-anomaly detector for
// software-defined networks, reproducing "FOCES: Detecting Forwarding
// Anomalies in Software Defined Networks" (Zhang et al., ICDCS 2018).
//
// FOCES models the controller's intended forwarding behaviour as a
// flow-counter equation system H·X = Y: H (the flow-counter matrix)
// relates every logical flow to every rule it matches, X is the vector
// of flow volumes, and Y is the vector of rule counters. Each detection
// period FOCES collects the live counters Y', computes the
// least-squares estimate X̂ = (HᵀH)⁻¹HᵀY', and inspects the error
// vector Δ = |Y' − H·X̂|: when the anomaly index max(Δ)/median(Δ)
// exceeds a threshold (default 4.5), some flow is not following the
// path the controller installed — a compromised switch is rewriting,
// detouring or dropping traffic.
//
// The package exposes the full pipeline the paper describes:
//
//   - topology generators (FatTree, BCube, DCell, a Stanford-like
//     backbone) and a builder for custom networks;
//   - a controller that computes shortest-path rules (per-pair exact or
//     per-destination aggregate) with deterministic ECMP spreading;
//   - a simulated data plane with per-link loss, OpenFlow-semantics
//     rule counters, port statistics, and threat-model attack
//     injection;
//   - ATPG-style FCM generation from controller intent;
//   - the baseline detector (Algorithm 1), the sliced detector
//     (Algorithm 2) with per-switch localization, and the Theorem 1/2
//     detectability analysis;
//   - an OpenFlow-like control channel and statistics collector.
//
// Most applications start with NewSystem and drive detection through
// System.Run — the single supported entry point: one Observation in,
// one Report out, for a live period and a replayed backlog alike.
// System.Serve runs every window of a push-driven stream through it.
//
//	top, _ := foces.FatTree(4)
//	sys, _ := foces.NewSystem(top, foces.PairExact)
//	y, _ := sys.ObserveCounters(rng, 1000) // or collect real counters
//	rep, _ := sys.Run(foces.Observation{Vector: y})
//	if rep.Anomalous { ... }
//
// An Observation carries either a prepared counter vector (Vector) or
// raw per-rule counters (Counters), plus optionally the switches that
// failed to report (Missing) and the baseline epoch the window was
// collected under (Epoch). Run validates the observation and turns both
// degraded conditions into one row mask — the rule rows of missing
// switches plus the rows changed since the window's epoch — then asks
// the prepared engines about the rows that are left; a clean window is
// the empty mask. The Report labels where the mask came from
// (Report.Path), and records both engines' verdicts, localization
// suspects, and per-stage timings. The older methods Detect,
// DetectSliced and DetectReconciled are deprecated wrappers over Run
// and will keep working.
//
// # Steady-state monitoring
//
// The flow-counter matrix H only changes when the controller installs
// rules, so the expensive part of detection — assembling and factoring
// HᵀH — is done once, not every period. NewSystem prepares the
// factorizations up front and System.Run reuses them, so a production
// monitor is simply:
//
//	sys, _ := foces.NewSystem(top, foces.PairExact) // factors once
//	for range ticker.C {                            // every period
//		rep, err := sys.Run(foces.Observation{Counters: collected})
//		if err == nil && rep.Anomalous { alert(rep.Suspects) }
//	}
//
// Each period costs only triangular solves, a sparse mat-vec and order
// statistics per slice, with slices checked in parallel. After any
// rule change call sys.RebuildBaseline() — detection against a stale
// baseline checks the wrong intent and will flag honest switches.
// Standalone engines over a bare FCM are available via NewDetector and
// NewSlicedDetector; both are safe for concurrent use.
//
// # Observability
//
// EnableTelemetry wires a System to a TelemetryRegistry (construct one
// with NewTelemetryRegistry, or NewNopTelemetryRegistry to disable):
// both detection engines, the churn manager and Run itself record
// staged timings, anomaly-index distributions and verdict counts into
// Prometheus-exposable families (see README.md for the catalogue), and
// RecentRuns exposes a ring of the latest Run verdicts. The registry's
// Handler serves text-exposition format 0.0.4. The hot path performs
// only atomic updates — label children are resolved once at wiring
// time — so instrumentation is effectively free.
package foces

import (
	"foces/internal/analysis"
	"foces/internal/churn"
	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/fcm"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/matrix"
	"foces/internal/stats"
	"foces/internal/topo"
	"foces/internal/verify"
)

// Re-exported core types. Aliases keep the implementation in internal
// packages while giving users a single import.
type (
	// Topology is an immutable switch/host graph.
	Topology = topo.Topology
	// TopologyBuilder incrementally constructs a Topology.
	TopologyBuilder = topo.Builder
	// SwitchID identifies a switch.
	SwitchID = topo.SwitchID
	// HostID identifies a host.
	HostID = topo.HostID
	// Switch is one forwarding element.
	Switch = topo.Switch
	// Host is one end host.
	Host = topo.Host

	// Rule is one flow-table entry.
	Rule = flowtable.Rule
	// Action is a rule's forwarding action.
	Action = flowtable.Action
	// ActionType enumerates forwarding actions.
	ActionType = flowtable.ActionType
	// FlowTable is one switch's rule table.
	FlowTable = flowtable.Table

	// HeaderLayout names the packet fields used in matches.
	HeaderLayout = header.Layout
	// HeaderSpace is a ternary match over packet headers.
	HeaderSpace = header.Space

	// Network is the simulated data plane.
	Network = dataplane.Network
	// TrafficMatrix maps host pairs to offered volume.
	TrafficMatrix = dataplane.TrafficMatrix
	// FlowKey identifies a (src, dst) traffic flow.
	FlowKey = dataplane.FlowKey
	// Attack is one rule-level compromise.
	Attack = dataplane.Attack
	// AttackKind enumerates threat-model anomalies.
	AttackKind = dataplane.AttackKind
	// PortCounters is one switch's port statistics.
	PortCounters = dataplane.PortCounters

	// Controller computes and installs forwarding rules.
	Controller = controller.Controller
	// PolicyMode selects the rule-installation policy.
	PolicyMode = controller.PolicyMode

	// FCM is the flow-counter matrix with its metadata.
	FCM = fcm.FCM
	// Flow is one logical flow (an equivalence class of packets).
	Flow = fcm.Flow
	// Pair is a (src, dst) host pair carried by a flow.
	Pair = fcm.Pair

	// DetectOptions tunes detection.
	DetectOptions = core.Options
	// Result is one detection outcome.
	Result = core.Result
	// Detector is a prepared factor-once/detect-many Algorithm 1 engine.
	Detector = core.Detector
	// SlicedDetector is a prepared, parallel Algorithm 2 engine.
	SlicedDetector = core.SlicedDetector
	// Slice is one per-switch sub-FCM.
	Slice = core.Slice
	// SlicedOutcome is a sliced detection outcome with localization.
	SlicedOutcome = core.SlicedOutcome
	// Detectability is a Theorem 1/2 detectability verdict.
	Detectability = core.Detectability
	// KernelOptions tunes the parallel blocked linear-algebra kernels
	// (blocked Cholesky, slice-build fan-out) and can force the
	// sparse-vs-dense solver selection.
	KernelOptions = matrix.KernelOptions
	// SparseMode selects the normal-equations backend: automatic
	// selection from the Gram's density, forced sparse, or forced dense.
	SparseMode = matrix.SparseMode

	// RuleChange is one controller rule mutation event.
	RuleChange = controller.RuleChange
	// RuleOp enumerates rule mutation kinds.
	RuleOp = controller.RuleOp
	// ChurnManager maintains an epoch-versioned detection baseline
	// under rule churn.
	ChurnManager = churn.Manager
	// ChurnConfig tunes incremental baseline maintenance.
	ChurnConfig = churn.Config
	// ChurnUpdate is one applied epoch of rule churn.
	ChurnUpdate = churn.Update
	// ChurnStats summarizes incremental-maintenance work.
	ChurnStats = churn.Stats
)

// Rule mutation kinds.
const (
	// RuleAdded is a new rule installation.
	RuleAdded = controller.RuleAdded
	// RuleRemoved is a rule deletion (its ID is retired forever).
	RuleRemoved = controller.RuleRemoved
	// RuleModified is an in-place rewrite (same switch, same ID).
	RuleModified = controller.RuleModified
)

// Sparse solver modes for KernelOptions.Sparse.
const (
	// SparseAuto picks sparse or dense from the Gram's density alone.
	SparseAuto = matrix.SparseAuto
	// SparseAlways forces the sparse Cholesky path.
	SparseAlways = matrix.SparseAlways
	// SparseNever forces the dense path.
	SparseNever = matrix.SparseNever
)

// Policy modes.
const (
	// PairExact installs one exact (src, dst) rule per flow per hop.
	PairExact = controller.PairExact
	// DestAggregate installs one per-destination rule per switch.
	DestAggregate = controller.DestAggregate
)

// Forwarding actions.
const (
	// ActionOutput forwards out of a port.
	ActionOutput = flowtable.ActionOutput
	// ActionDrop discards matched packets.
	ActionDrop = flowtable.ActionDrop
	// ActionDeliver hands packets to the locally attached host.
	ActionDeliver = flowtable.ActionDeliver
)

// Attack kinds.
const (
	// AttackPortSwap rewrites a rule's output port.
	AttackPortSwap = dataplane.AttackPortSwap
	// AttackDrop silently discards matched packets.
	AttackDrop = dataplane.AttackDrop
)

// DefaultThreshold is the paper's default anomaly-index threshold
// T = 4.5 (§IV-A).
const DefaultThreshold = stats.DefaultThreshold

// SetKernelDefaults installs process-wide defaults for the parallel
// blocked linear-algebra kernels used during baseline preparation
// (Gram assembly, Cholesky factorization, slice builds) and returns
// the previous defaults. The zero KernelOptions selects automatic
// sizing (GOMAXPROCS workers, the built-in block size); Serial forces
// the reference single-threaded kernels. Parallel and serial kernels
// produce bitwise-identical Gram matrices and, for the blocked factor,
// results equal up to floating-point roundoff with identical
// positive-definiteness verdicts. Safe for concurrent use; takes
// effect for engines prepared after the call.
func SetKernelDefaults(o KernelOptions) KernelOptions { return matrix.SetKernelDefaults(o) }

// KernelDefaults reports the current process-wide kernel defaults.
func KernelDefaults() KernelOptions { return matrix.KernelDefaults() }

// Topology generators.

// FatTree builds the standard k-ary fat-tree (k even).
func FatTree(k int) (*Topology, error) { return topo.FatTree(k) }

// BCube builds BCube(n, k) with forwarding hosts modelled as proxy
// switches.
func BCube(n, k int) (*Topology, error) { return topo.BCube(n, k) }

// DCell builds DCell(n, 1) with forwarding servers modelled as proxy
// switches.
func DCell(n int) (*Topology, error) { return topo.DCell(n) }

// Stanford builds the synthesized 26-switch Stanford-like backbone.
func Stanford() (*Topology, error) { return topo.Stanford() }

// Jellyfish builds a seeded random degree-regular fabric of n switches
// with hostsPer hosts each — an unstructured topology for stress
// testing the detector beyond the paper's symmetric fabrics.
func Jellyfish(n, degree, hostsPer int, seed int64) (*Topology, error) {
	return topo.Jellyfish(n, degree, hostsPer, seed)
}

// TopologyByName builds one of the evaluation topologies by its paper
// name: "stanford", "fattree4", "fattree8", "bcube14" or "dcell14".
func TopologyByName(name string) (*Topology, error) { return topo.ByName(name) }

// NewTopologyBuilder starts a custom topology.
func NewTopologyBuilder(name string) *TopologyBuilder { return topo.NewBuilder(name) }

// FiveTuple returns the default TCP/IP five-tuple header layout.
func FiveTuple() *HeaderLayout { return header.FiveTuple() }

// UniformTraffic offers the same volume on every ordered host pair.
func UniformTraffic(t *Topology, packetsPerFlow uint64) TrafficMatrix {
	return dataplane.UniformTraffic(t, packetsPerFlow)
}

// GenerateFCM computes the flow-counter matrix for a rule set over a
// topology via ATPG-style symbolic traversal.
func GenerateFCM(t *Topology, layout *HeaderLayout, rules []Rule) (*FCM, error) {
	return fcm.Generate(t, layout, rules)
}

// FCMFromHistories assembles an FCM directly from explicit flow rule
// histories — useful for worked examples and external reachability
// tooling.
func FCMFromHistories(t *Topology, rules []Rule, histories [][]int) (*FCM, error) {
	return fcm.FromHistories(t, rules, histories)
}

// IntentReport is the outcome of intent verification.
type IntentReport = verify.Report

// CoverageReport summarizes detectability over all single-rule
// deviations a topology admits.
type CoverageReport = analysis.Report

// AnalyzeCoverage enumerates every single-rule port-swap deviation and
// classifies its detectability (Theorems 1 and 2) — the operator's
// answer to "what could an adversary get away with here?".
func AnalyzeCoverage(f *FCM) (CoverageReport, error) {
	return analysis.Coverage(f)
}

// Harden realizes the paper's second future-work direction: it finds
// the masked deviations, installs canary rules that give each deviated
// path an unexplainable counter, and returns the hardened FCM with
// before/after coverage reports. Forwarding behaviour is unchanged.
func Harden(f *FCM) (hardened *FCM, before, after CoverageReport, err error) {
	return analysis.Harden(f)
}

// VerifyIntent validates a rule set before it becomes the detection
// baseline: all host pairs reachable and correctly delivered, no
// shadowed rules, no forwarding loops. Run it whenever rules change —
// an FCM generated from broken intent would flag honest switches.
func VerifyIntent(t *Topology, layout *HeaderLayout, rules []Rule) (IntentReport, error) {
	return verify.Intent(t, layout, rules)
}

// Detect runs the threshold-based detection algorithm (Algorithm 1) on
// an FCM and observed counter vector. Each call re-factors the normal
// equations; steady-state monitors should prepare once with
// NewDetector (or use System, which embeds the prepared engines).
func Detect(f *FCM, y []float64, opts DetectOptions) (Result, error) {
	return core.Detect(f.H, y, opts)
}

// NewDetector prepares a factor-once/detect-many Algorithm 1 engine
// over the FCM: the O(n³) factorization runs here, and every
// subsequent Detector.Detect costs only triangular solves, one SpMV
// and order statistics. Rebuild the engine whenever the rule set (and
// hence the FCM) changes. Safe for concurrent Detect calls.
func NewDetector(f *FCM, opts DetectOptions) (*Detector, error) {
	return core.NewDetector(f.H, opts)
}

// BuildSlices derives per-switch sub-FCMs for sliced detection (§IV-B).
func BuildSlices(f *FCM) ([]Slice, error) { return core.BuildSlices(f) }

// DetectSliced runs the sliced detection algorithm (Algorithm 2)
// sequentially, re-factoring every slice. Steady-state monitors should
// prepare once with NewSlicedDetector (or use System, which embeds the
// prepared engines).
func DetectSliced(slices []Slice, y []float64, opts DetectOptions) (SlicedOutcome, error) {
	return core.DetectSliced(slices, y, opts)
}

// NewSlicedDetector prepares a parallel Algorithm 2 engine: every
// slice's sub-FCM is factored once and bounds-checked against the
// FCM's rule count, and each Detect fans the slices out over a
// GOMAXPROCS-bounded worker pool with an outcome identical to a
// sequential run. Rebuild on any rule change. Safe for concurrent
// Detect calls.
func NewSlicedDetector(f *FCM, slices []Slice, opts DetectOptions) (*SlicedDetector, error) {
	return core.NewSlicedDetector(slices, f.NumRules(), opts)
}

// AnalyzeDetectability evaluates whether a hypothetical forwarding
// anomaly with modified rule history hPrime is detectable (Theorems 1
// and 2).
func AnalyzeDetectability(f *FCM, hPrime []int) (Detectability, error) {
	return core.AnalyzeDetectability(f, hPrime)
}
