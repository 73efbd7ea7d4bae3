package collector

import "foces/internal/topo"

// DeltaTracker converts cumulative per-switch rule counters into
// per-period deltas — the windowed layer between a production
// collection plane (where switch counters monotonically accumulate and
// are never reset by the collector) and FOCES detection (which checks
// one period's traffic against HX=Y). It also detects counter resets: a
// counter that went backwards means the switch restarted and zeroed its
// counters, so that switch's window spans an unknown fraction of the
// period and must be treated as missing rather than fed into the
// equation system as garbage (a reboot would otherwise read as a
// massive forwarding anomaly).
//
// Windows are additionally tagged with the rule-set epoch (SetEpoch):
// each switch's baseline snapshot remembers the epoch it was taken
// under, so AdvanceEpoch can report when a delta window straddles a
// rule update — those windows mix traffic matched under two different
// rule generations and must be reconciled (changed rules masked)
// rather than read as forwarding anomalies.
//
// Each switch's baseline map is updated in place (keys are inserted or
// deleted only when the switch's rule set actually changes), so the
// steady state — every window reporting the same rule IDs — advances
// without allocating. The streaming assembler goes further through
// advanceEpochInto, which accumulates deltas into a dense epoch-sized
// scratch instead of returning a fresh map per snapshot.
//
// Internally a snapshot is a list of (rule, count) pairs — the form the
// assembler queues its copies in. The map-taking entry points flatten
// their argument into a scratch list first, so there is one advance.
//
// DeltaTracker is not safe for concurrent use; WindowAssembler guards
// it with its own mutex.
type DeltaTracker struct {
	prev      map[topo.SwitchID]map[int]uint64
	prevEpoch map[topo.SwitchID]uint64
	epoch     uint64
	flat      []ruleCount // AdvanceEpoch's flattening scratch
}

// ruleCount is one entry of a cumulative counter snapshot. A snapshot
// in this form lists each rule at most once.
type ruleCount struct {
	rule  int
	count uint64
}

// appendSnapshot flattens a counter map onto dst.
func appendSnapshot(dst []ruleCount, counters map[int]uint64) []ruleCount {
	for rid, v := range counters {
		dst = append(dst, ruleCount{rid, v})
	}
	return dst
}

// NewDeltaTracker returns an empty tracker; every switch's first
// observation establishes its baseline.
func NewDeltaTracker() *DeltaTracker {
	return &DeltaTracker{
		prev:      make(map[topo.SwitchID]map[int]uint64),
		prevEpoch: make(map[topo.SwitchID]uint64),
	}
}

// SetEpoch records the rule-set epoch that snapshots consumed from now
// on belong to. Call it whenever the churn subsystem applies an update.
func (t *DeltaTracker) SetEpoch(e uint64) { t.epoch = e }

// Epoch reports the current rule-set epoch.
func (t *DeltaTracker) Epoch() uint64 { return t.epoch }

// AdvanceEpoch consumes one switch's cumulative counter snapshot and
// returns the per-window delta since the previous snapshot.
//
//   - primed=false: the switch had no baseline (first observation, or
//     after Forget) — the snapshot only establishes one; delta is nil
//     and the switch's counters are unusable this window.
//   - reset=true: some counter went backwards (cur < prev), i.e. the
//     switch restarted mid-window. The snapshot re-baselines; delta is
//     nil.
//   - otherwise delta[rid] = cur[rid] − prev[rid]. Rules absent from
//     the previous snapshot (installed mid-window) count from zero;
//     rules absent from the current one (deleted) drop out.
//
// fromEpoch is the rule-set epoch the window's baseline snapshot was
// taken under, and straddles reports whether a usable delta window
// spans one or more rule updates (fromEpoch != the current epoch): its
// counters mix two rule generations and the rules changed in between
// must be masked out of detection for this window.
//
// The snapshot is never retained; the caller keeps ownership of cur.
// This map form is the reference the streaming path is checked
// against; the assembler itself advances through advanceEpochInto.
func (t *DeltaTracker) AdvanceEpoch(sw topo.SwitchID, cur map[int]uint64) (delta map[int]uint64, reset, primed bool, fromEpoch uint64, straddles bool) {
	t.flat = appendSnapshot(t.flat[:0], cur)
	delta, reset, primed, fromEpoch, straddles = t.advance(sw, t.flat, nil, true)
	return
}

// advanceEpochInto is AdvanceEpoch for the streaming hot path: it takes
// the snapshot already flattened, and instead of returning a fresh
// delta map it accumulates the delta into acc (only when the snapshot
// yields a usable delta — primed and not reset). acc entries sum across
// calls, so consuming a queue of snapshots through one accumulator
// telescopes to the single delta one poll at the final snapshot would
// have produced.
func (t *DeltaTracker) advanceEpochInto(sw topo.SwitchID, cur []ruleCount, acc *denseDeltas) (reset, primed bool, fromEpoch uint64, straddles bool) {
	_, reset, primed, fromEpoch, straddles = t.advance(sw, cur, acc, false)
	return
}

// advance is the shared body of AdvanceEpoch and advanceEpochInto: it
// reset-checks cur against the baseline, produces the delta (as a
// fresh map when wantMap, into acc otherwise), and folds cur into the
// baseline in place.
func (t *DeltaTracker) advance(sw topo.SwitchID, cur []ruleCount, acc *denseDeltas, wantMap bool) (delta map[int]uint64, reset, primed bool, fromEpoch uint64, straddles bool) {
	prev, ok := t.prev[sw]
	if ok {
		for _, c := range cur {
			if c.count < prev[c.rule] {
				reset = true
				break
			}
		}
	}
	fromEpoch = t.prevEpoch[sw]
	usable := ok && !reset
	if prev == nil {
		prev = make(map[int]uint64, len(cur))
		t.prev[sw] = prev
	}
	if usable && wantMap {
		delta = make(map[int]uint64, len(cur))
	}
	before := len(prev)
	added := 0
	for _, c := range cur {
		old, existed := prev[c.rule]
		if !existed {
			added++
		}
		if usable {
			if wantMap {
				delta[c.rule] = c.count - old
			} else {
				acc.add(c.rule, c.count-old)
			}
		}
		prev[c.rule] = c.count
	}
	// Rules absent from cur were deleted since the previous snapshot;
	// drop them from the baseline, which by now holds cur's value for
	// every rule cur lists: what must remain is exactly cur. In the
	// steady state (same rule set every window) this branch never runs
	// and advance is allocation free.
	if before+added > len(cur) {
		clear(prev)
		for _, c := range cur {
			prev[c.rule] = c.count
		}
	}
	t.prevEpoch[sw] = t.epoch
	if !ok || reset {
		return nil, reset, ok, fromEpoch, false
	}
	return delta, false, true, fromEpoch, fromEpoch != t.epoch
}

// Forget drops a switch's baseline, forcing the next advance to
// re-prime. Used after a failed poll: the switch's last snapshot
// predates the gap, so a delta across it would span several windows.
func (t *DeltaTracker) Forget(sw topo.SwitchID) {
	delete(t.prev, sw)
	delete(t.prevEpoch, sw)
}

// Primed reports whether the switch currently has a baseline.
func (t *DeltaTracker) Primed(sw topo.SwitchID) bool {
	_, ok := t.prev[sw]
	return ok
}

// denseDeltas is an epoch-sized per-rule delta accumulator: rule IDs
// are dense small ints that are never reclaimed, so a []uint64 indexed
// by rule ID replaces the per-snapshot delta map on the streaming hot
// path. A generation stamp marks which entries belong to the current
// accumulation, so reset is O(1) (bump the generation) instead of
// clearing the arrays, and the touched list replays exactly the
// entries added since the last reset — including explicit zeros, which
// must survive into Window.Deltas just as a zero-valued map entry
// would.
type denseDeltas struct {
	vals    []uint64
	stamp   []uint32
	gen     uint32
	touched []int
	total   uint64
}

func newDenseDeltas(space int) *denseDeltas {
	if space < 0 {
		space = 0
	}
	return &denseDeltas{
		vals:  make([]uint64, space),
		stamp: make([]uint32, space),
		gen:   1,
	}
}

// reset discards every accumulated entry in O(1) by advancing the
// generation stamp (clearing the stamp array only on the ~4-billionth
// wraparound).
func (d *denseDeltas) reset() {
	d.touched = d.touched[:0]
	d.total = 0
	d.gen++
	if d.gen == 0 {
		clear(d.stamp)
		d.gen = 1
	}
}

// add accumulates one rule's delta, growing the arrays when a rule ID
// beyond the current space appears (rule churn added rules).
func (d *denseDeltas) add(rid int, v uint64) {
	if rid >= len(d.vals) {
		d.grow(rid + 1)
	}
	if d.stamp[rid] != d.gen {
		d.stamp[rid] = d.gen
		d.vals[rid] = v
		d.touched = append(d.touched, rid)
	} else {
		d.vals[rid] += v
	}
	d.total += v
}

// grow widens the accumulator to at least n rule slots (next power of
// two, so churn-driven growth amortizes).
func (d *denseDeltas) grow(n int) {
	cap := len(d.vals) * 2
	if cap < n {
		cap = n
	}
	if cap < 64 {
		cap = 64
	}
	vals := make([]uint64, cap)
	copy(vals, d.vals)
	d.vals = vals
	stamp := make([]uint32, cap)
	copy(stamp, d.stamp)
	d.stamp = stamp
}
