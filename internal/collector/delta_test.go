package collector

import (
	"testing"

	"foces/internal/topo"
)

func TestDeltaTrackerPrimeAndAdvance(t *testing.T) {
	tr := NewDeltaTracker()
	const sw = topo.SwitchID(2)
	if tr.Primed(sw) {
		t.Fatal("fresh tracker must not be primed")
	}
	delta, reset, primed := advance(tr, sw, map[int]uint64{1: 100, 2: 5})
	if primed || reset || delta != nil {
		t.Fatalf("first observation: delta=%v reset=%v primed=%v", delta, reset, primed)
	}
	if !tr.Primed(sw) {
		t.Fatal("tracker must be primed after the first snapshot")
	}
	delta, reset, primed = advance(tr, sw, map[int]uint64{1: 160, 2: 5})
	if !primed || reset {
		t.Fatalf("second observation: reset=%v primed=%v", reset, primed)
	}
	if delta[1] != 60 || delta[2] != 0 {
		t.Fatalf("delta = %v, want {1:60 2:0}", delta)
	}
}

func TestDeltaTrackerReset(t *testing.T) {
	tr := NewDeltaTracker()
	const sw = topo.SwitchID(0)
	advance(tr, sw, map[int]uint64{1: 100})
	delta, reset, primed := advance(tr, sw, map[int]uint64{1: 40})
	if !reset || delta != nil || !primed {
		t.Fatalf("backwards counter: delta=%v reset=%v primed=%v", delta, reset, primed)
	}
	// The reset snapshot re-baselines: the next advance is a clean delta.
	delta, reset, primed = advance(tr, sw, map[int]uint64{1: 70})
	if reset || !primed || delta[1] != 30 {
		t.Fatalf("post-reset: delta=%v reset=%v primed=%v", delta, reset, primed)
	}
}

func TestDeltaTrackerForget(t *testing.T) {
	tr := NewDeltaTracker()
	const sw = topo.SwitchID(7)
	advance(tr, sw, map[int]uint64{1: 100})
	tr.Forget(sw)
	if tr.Primed(sw) {
		t.Fatal("forget must drop the baseline")
	}
	delta, reset, primed := advance(tr, sw, map[int]uint64{1: 500})
	if primed || reset || delta != nil {
		t.Fatalf("after forget: delta=%v reset=%v primed=%v", delta, reset, primed)
	}
}

func TestDeltaTrackerRuleChurn(t *testing.T) {
	tr := NewDeltaTracker()
	const sw = topo.SwitchID(1)
	advance(tr, sw, map[int]uint64{1: 10})
	// Rule 2 installed mid-window counts from zero; rule 1 deleted drops
	// out without tripping reset detection.
	delta, reset, _ := advance(tr, sw, map[int]uint64{1: 15, 2: 8})
	if reset || delta[2] != 8 || delta[1] != 5 {
		t.Fatalf("mid-window install: delta=%v reset=%v", delta, reset)
	}
	delta, reset, _ = advance(tr, sw, map[int]uint64{2: 9})
	if reset {
		t.Fatal("rule deletion must not read as a counter reset")
	}
	if _, ok := delta[1]; ok {
		t.Fatalf("deleted rule leaked into delta: %v", delta)
	}
	if delta[2] != 1 {
		t.Fatalf("delta = %v", delta)
	}
}

func TestDeltaTrackerCopiesSnapshot(t *testing.T) {
	tr := NewDeltaTracker()
	const sw = topo.SwitchID(3)
	snap := map[int]uint64{1: 100}
	advance(tr, sw, snap)
	snap[1] = 0 // caller mutates its map; the baseline must not move
	delta, reset, primed := advance(tr, sw, map[int]uint64{1: 130})
	if reset || !primed || delta[1] != 30 {
		t.Fatalf("tracker aliased the caller's snapshot: delta=%v reset=%v", delta, reset)
	}
}

func TestDeltaTrackerEpochStraddling(t *testing.T) {
	tr := NewDeltaTracker()
	const sw = topo.SwitchID(4)
	tr.SetEpoch(1)
	// Prime under epoch 1.
	if _, _, primed, _, straddles := tr.AdvanceEpoch(sw, map[int]uint64{1: 10}); primed || straddles {
		t.Fatalf("first observation: primed=%v straddles=%v", primed, straddles)
	}
	// Same-epoch window: no straddle.
	delta, _, primed, from, straddles := tr.AdvanceEpoch(sw, map[int]uint64{1: 15})
	if !primed || straddles || from != 1 || delta[1] != 5 {
		t.Fatalf("steady window: delta=%v from=%d straddles=%v", delta, from, straddles)
	}
	// A rule update lands mid-window.
	tr.SetEpoch(2)
	delta, _, primed, from, straddles = tr.AdvanceEpoch(sw, map[int]uint64{1: 21})
	if !primed || !straddles || from != 1 || delta[1] != 6 {
		t.Fatalf("straddling window: delta=%v from=%d straddles=%v", delta, from, straddles)
	}
	// The window after the update is clean again.
	_, _, _, from, straddles = tr.AdvanceEpoch(sw, map[int]uint64{1: 30})
	if straddles || from != 2 {
		t.Fatalf("post-update window: from=%d straddles=%v", from, straddles)
	}
	// Forget drops the epoch baseline along with the counters.
	tr.Forget(sw)
	if _, _, primed, _, straddles := tr.AdvanceEpoch(sw, map[int]uint64{1: 40}); primed || straddles {
		t.Fatalf("after forget: primed=%v straddles=%v", primed, straddles)
	}
}

func TestDeltaTrackerResetDuringStraddle(t *testing.T) {
	tr := NewDeltaTracker()
	const sw = topo.SwitchID(5)
	tr.SetEpoch(1)
	tr.AdvanceEpoch(sw, map[int]uint64{1: 100}) // prime under epoch 1
	tr.SetEpoch(2)
	// The switch reboots inside a window that also straddles a rule
	// update: reset wins — there is no usable delta to reconcile, so
	// straddles must NOT be reported alongside it.
	delta, reset, primed, from, straddles := tr.AdvanceEpoch(sw, map[int]uint64{1: 7})
	if !reset || straddles || delta != nil {
		t.Fatalf("reset-during-straddle: delta=%v reset=%v from=%d straddles=%v", delta, reset, from, straddles)
	}
	if !primed {
		t.Fatalf("reset window must still report primed=true (a baseline existed)")
	}
	// The reset snapshot re-baselined under epoch 2: the next window is
	// clean with no residual straddle.
	delta, reset, primed, from, straddles = tr.AdvanceEpoch(sw, map[int]uint64{1: 12})
	if reset || !primed || straddles || from != 2 || delta[1] != 5 {
		t.Fatalf("post-reset window: delta=%v reset=%v from=%d straddles=%v", delta, reset, from, straddles)
	}
}

func TestDeltaTrackerForgetThenSameEpochReprime(t *testing.T) {
	tr := NewDeltaTracker()
	const sw = topo.SwitchID(6)
	tr.SetEpoch(3)
	tr.AdvanceEpoch(sw, map[int]uint64{1: 10})
	if !tr.Primed(sw) {
		t.Fatal("not primed after first observation")
	}
	tr.Forget(sw)
	if tr.Primed(sw) {
		t.Fatal("still primed after Forget")
	}
	// Re-prime within the same epoch: the first advance establishes a
	// baseline only; the second must difference against the re-primed
	// snapshot (not the pre-Forget one) and must not straddle.
	if delta, _, primed, _, _ := tr.AdvanceEpoch(sw, map[int]uint64{1: 50}); primed || delta != nil {
		t.Fatalf("re-prime produced a delta: %v primed=%v", delta, primed)
	}
	delta, reset, primed, from, straddles := tr.AdvanceEpoch(sw, map[int]uint64{1: 60})
	if !primed || reset || straddles || from != 3 || delta[1] != 10 {
		t.Fatalf("post-reprime window: delta=%v reset=%v from=%d straddles=%v", delta, reset, from, straddles)
	}
}

func TestDeltaTrackerDuplicateAndNonMonotonicPushes(t *testing.T) {
	tr := NewDeltaTracker()
	const sw = topo.SwitchID(7)
	advance(tr, sw, map[int]uint64{1: 100, 2: 5})
	// A duplicate push (identical cumulative snapshot) is NOT a reset —
	// no counter went backwards — and yields an all-zero delta.
	delta, reset, primed := advance(tr, sw, map[int]uint64{1: 100, 2: 5})
	if reset || !primed || delta[1] != 0 || delta[2] != 0 {
		t.Fatalf("duplicate push: delta=%v reset=%v", delta, reset)
	}
	// One counter advancing while another goes backwards is a reset:
	// mixed-direction movement means the snapshot generations straddle a
	// reboot and nothing in the window is trustworthy.
	delta, reset, primed = advance(tr, sw, map[int]uint64{1: 130, 2: 2})
	if !reset || !primed || delta != nil {
		t.Fatalf("non-monotonic push: delta=%v reset=%v primed=%v", delta, reset, primed)
	}
	// The non-monotonic snapshot re-baselined; monotonic growth from it
	// flows normally, and a rule absent from the new snapshot drops out.
	delta, reset, primed = advance(tr, sw, map[int]uint64{1: 140})
	if reset || !primed || delta[1] != 10 {
		t.Fatalf("post-reset push: delta=%v reset=%v", delta, reset)
	}
	if _, dropped := delta[2]; dropped {
		t.Fatalf("deleted rule kept a delta row: %v", delta)
	}
}

// advance is AdvanceEpoch without the epoch results.
func advance(tr *DeltaTracker, sw topo.SwitchID, cur map[int]uint64) (delta map[int]uint64, reset, primed bool) {
	delta, reset, primed, _, _ = tr.AdvanceEpoch(sw, cur)
	return delta, reset, primed
}
