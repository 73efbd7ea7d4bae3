package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"foces/internal/fcm"
	"foces/internal/matrix"
	"foces/internal/topo"
)

// Slice is one per-switch sub-FCM (§IV-B): the rules of the switch plus
// their predecessor rules, and every flow matching at least one of
// them.
type Slice struct {
	Switch topo.SwitchID
	// RuleRows are the global rule IDs forming the slice's rows, in
	// ascending order.
	RuleRows []int
	// OwnRows are the global IDs of the switch's own rules (V_out), the
	// subset of RuleRows the slice exists to check.
	OwnRows []int
	// FlowCols are the flow IDs forming the slice's columns, in
	// ascending order.
	FlowCols []int
	// H is the sub-FCM restricted to RuleRows x FlowCols.
	H *matrix.CSR
}

// BuildSlices derives one slice per switch that has at least one rule,
// in topology switch order, following the FCM-slicing construction:
// R(S) = (V_in ∪ V_out) \ r_s from the switch's Rule Bipartite Graph,
// F(S) = flows matching at least one rule of R(S).
func BuildSlices(f *fcm.FCM) ([]Slice, error) {
	return BuildSlicesFor(f, nil)
}

// BuildSlicesFor is BuildSlices restricted to the switches in only (nil
// means all). A slice is read off the rows of H its rules occupy — the
// flows through a rule are that rule's row — so one slice costs what it
// contains, not a pass over every flow of the network: the churn
// subsystem rebuilds just the slices an update touched.
func BuildSlicesFor(f *fcm.FCM, only map[topo.SwitchID]bool) ([]Slice, error) {
	// V_out per switch: every installed rule (traffic-carrying or not),
	// skipping placeholder rows of retired rule IDs.
	vout := make(map[topo.SwitchID][]int)
	for _, r := range f.Rules {
		if r.Switch >= 0 && (only == nil || only[r.Switch]) {
			vout[r.Switch] = append(vout[r.Switch], r.ID)
		}
	}
	out := make([]Slice, 0, len(vout))
	for _, s := range f.Topology().Switches() {
		own := vout[s.ID]
		if len(own) == 0 {
			continue
		}
		// V_in: the rule a flow matched just before each rule of S.
		rows := append([]int(nil), own...)
		for _, rid := range own {
			f.H.RowEntries(rid, func(col int, _ float64) {
				hist := f.Flows[col].RuleIDs
				for i := 1; i < len(hist); i++ {
					if hist[i] == rid {
						rows = append(rows, hist[i-1])
					}
				}
			})
		}
		rows = sortedSet(rows)
		// F(S): flows with at least one rule in R(S), ascending by flow ID.
		var cols []int
		for _, rid := range rows {
			f.H.RowEntries(rid, func(col int, _ float64) { cols = append(cols, col) })
		}
		cols = sortedSet(cols)
		sub, err := f.H.SubMatrix(rows, cols)
		if err != nil {
			return nil, fmt.Errorf("core: slice for switch %d: %w", s.ID, err)
		}
		out = append(out, Slice{Switch: s.ID, RuleRows: rows, OwnRows: own, FlowCols: cols, H: sub})
	}
	return out, nil
}

// sortedSet sorts ids ascending and drops duplicates, in place.
func sortedSet(ids []int) []int {
	sort.Ints(ids)
	return slices.Compact(ids)
}

// LocalMask translates a global row mask (as RowMask builds it) into
// the slice's own terms: the indices into RuleRows that are masked,
// appended to dst, and whether to skip the slice altogether. A slice
// is skipped when every one of its switch's own rules is masked — its
// V_out is unobservable (the switch did not report, or all its rules
// changed mid-window), so there is nothing of that switch's to check.
func (sl *Slice) LocalMask(mask []bool, dst []int) (local []int, skip bool) {
	skip = len(sl.OwnRows) > 0
	for _, rid := range sl.OwnRows {
		if !mask[rid] {
			skip = false
			break
		}
	}
	if skip {
		return dst, true
	}
	for k, rid := range sl.RuleRows {
		if mask[rid] {
			dst = append(dst, k)
		}
	}
	return dst, false
}

// SliceResult is one switch's detection outcome within a sliced run.
type SliceResult struct {
	Switch topo.SwitchID
	Result Result
}

// SlicedOutcome aggregates a sliced detection run (Algorithm 2) and the
// per-switch localization ranking (§IV-B's future-work extension).
type SlicedOutcome struct {
	// Anomalous is true when any slice's index exceeds the threshold
	// (Algorithm 2 returns at the first such switch; all are evaluated
	// here to support localization).
	Anomalous bool
	// PerSwitch holds each slice's result, in slice order.
	PerSwitch []SliceResult
	// Suspects ranks switches whose slice exceeded the threshold by
	// descending anomaly index: the most likely compromised last-hop
	// switches.
	Suspects []topo.SwitchID
}

// MergeSliceResults aggregates per-slice results — one per slice, in
// slice order (ascending switch, the order BuildSlices emits) — into a
// SlicedOutcome, leaving out the slices skipped marks (nil: none; see
// Slice.LocalMask). This is THE merge: SlicedDetector's parallel and
// sequential runs and the cluster coordinator's partial-verdict
// assembly all funnel through it, so a distributed run reproduces a
// local run's outcome (including Suspects order under index ties,
// which the stable sort preserves in slice order) exactly.
func MergeSliceResults(set []Slice, results []Result, skipped []bool) SlicedOutcome {
	out := SlicedOutcome{PerSwitch: make([]SliceResult, 0, len(set))}
	anomalous := 0
	for i, sl := range set {
		if skipped != nil && skipped[i] {
			continue
		}
		out.PerSwitch = append(out.PerSwitch, SliceResult{Switch: sl.Switch, Result: results[i]})
		if results[i].Anomalous {
			anomalous++
		}
	}
	if anomalous == 0 {
		return out
	}
	out.Anomalous = true
	type suspect struct {
		sw    topo.SwitchID
		index float64
	}
	suspects := make([]suspect, 0, anomalous)
	for _, r := range out.PerSwitch {
		if r.Result.Anomalous {
			suspects = append(suspects, suspect{sw: r.Switch, index: r.Result.Index})
		}
	}
	// An anomalous index exceeds the threshold, so it is never NaN.
	slices.SortStableFunc(suspects, func(a, b suspect) int { return cmp.Compare(b.index, a.index) })
	// Suspects is its own small array: the recent-run ring keeps it.
	out.Suspects = make([]topo.SwitchID, len(suspects))
	for i, s := range suspects {
		out.Suspects[i] = s.sw
	}
	return out
}

// MaxIndex returns the largest finite-or-infinite anomaly index across
// slices (0 when there are none).
func (o SlicedOutcome) MaxIndex() float64 {
	max := 0.0
	for _, r := range o.PerSwitch {
		if r.Result.Index > max {
			max = r.Result.Index
		}
	}
	return max
}

// DetectSliced runs Algorithm 2 (Detect_Anomaly_Slicing): Algorithm 1
// independently on each per-switch sub-FCM against the corresponding
// sub-vector of y. It builds a throwaway SlicedDetector and runs it
// sequentially, re-factoring every slice on every call — loops that
// detect repeatedly against fixed rules should construct one
// SlicedDetector and reuse it.
func DetectSliced(slices []Slice, y []float64, opts Options) (SlicedOutcome, error) {
	sd, err := NewSlicedDetector(slices, len(y), opts)
	if err != nil {
		return SlicedOutcome{}, err
	}
	return sd.detect(y, nil, opts, 1)
}
