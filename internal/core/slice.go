package core

import (
	"fmt"
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
// following the FCM-slicing construction: R(S) = (V_in ∪ V_out) \ r_s
// from the switch's Rule Bipartite Graph, F(S) = flows matching at
// least one rule of R(S). Column assignment goes through a rule→slice
// inverse index so the whole construction is one pass over the flow
// histories, not one scan per switch — the churn subsystem rebuilds
// slices on every applied update, so this is on the per-update path.
func BuildSlices(f *fcm.FCM) ([]Slice, error) {
	// Predecessor sets per switch: for each flow history, rule r
	// preceding a rule on switch S joins V_in(S).
	vin := make(map[topo.SwitchID]map[int]bool)
	for _, fl := range f.Flows {
		for i, rid := range fl.RuleIDs {
			if i == 0 {
				continue
			}
			sw := f.Rules[rid].Switch
			if vin[sw] == nil {
				vin[sw] = make(map[int]bool)
			}
			vin[sw][fl.RuleIDs[i-1]] = true
		}
	}
	// V_out per switch: every installed rule (traffic-carrying or not),
	// skipping placeholder rows of retired rule IDs.
	vout := make(map[topo.SwitchID][]int)
	for _, r := range f.Rules {
		if r.Switch >= 0 {
			vout[r.Switch] = append(vout[r.Switch], r.ID)
		}
	}
	type protoSlice struct {
		sw   topo.SwitchID
		rows []int
	}
	var protos []protoSlice
	ruleSlices := make(map[int][]int) // rule ID -> indices into protos
	for _, s := range f.Topology().Switches() {
		out := vout[s.ID]
		if len(out) == 0 {
			continue
		}
		ruleSet := make(map[int]bool, len(out)+len(vin[s.ID]))
		for _, rid := range out {
			ruleSet[rid] = true
		}
		for rid := range vin[s.ID] {
			ruleSet[rid] = true
		}
		rows := make([]int, 0, len(ruleSet))
		for rid := range ruleSet {
			rows = append(rows, rid)
		}
		sort.Ints(rows)
		idx := len(protos)
		protos = append(protos, protoSlice{sw: s.ID, rows: rows})
		for _, rid := range rows {
			ruleSlices[rid] = append(ruleSlices[rid], idx)
		}
	}
	// F(S): flows with at least one rule in R(S), ascending by flow ID
	// (f.Flows is in column order).
	cols := make([][]int, len(protos))
	seen := make([]int, len(protos))
	for i := range seen {
		seen[i] = -1
	}
	for j, fl := range f.Flows {
		for _, rid := range fl.RuleIDs {
			for _, idx := range ruleSlices[rid] {
				if seen[idx] != j {
					seen[idx] = j
					cols[idx] = append(cols[idx], fl.ID)
				}
			}
		}
	}
	slices := make([]Slice, 0, len(protos))
	for i, p := range protos {
		sub, err := f.H.SubMatrix(p.rows, cols[i])
		if err != nil {
			return nil, fmt.Errorf("core: slice for switch %d: %w", p.sw, err)
		}
		slices = append(slices, Slice{Switch: p.sw, RuleRows: p.rows, OwnRows: vout[p.sw], FlowCols: cols[i], H: sub})
	}
	return slices, nil
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
func MergeSliceResults(slices []Slice, results []Result, skipped []bool) SlicedOutcome {
	var out SlicedOutcome
	type suspect struct {
		sw    topo.SwitchID
		index float64
	}
	var suspects []suspect
	for i, sl := range slices {
		if skipped != nil && skipped[i] {
			continue
		}
		out.PerSwitch = append(out.PerSwitch, SliceResult{Switch: sl.Switch, Result: results[i]})
		if results[i].Anomalous {
			out.Anomalous = true
			suspects = append(suspects, suspect{sw: sl.Switch, index: results[i].Index})
		}
	}
	sort.SliceStable(suspects, func(i, j int) bool { return suspects[i].index > suspects[j].index })
	for _, s := range suspects {
		out.Suspects = append(out.Suspects, s.sw)
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
