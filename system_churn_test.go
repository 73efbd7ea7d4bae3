package foces_test

import (
	"math/rand"
	"slices"
	"testing"

	"foces"
	"foces/internal/churn"
	"foces/internal/core"
	"foces/internal/topo"
)

func newLinearSystem(t *testing.T) *foces.System {
	t.Helper()
	top, err := topo.Linear(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := foces.NewSystem(top, foces.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRebuildBaselineFastPath checks the rule-set-hash no-op: rebuilds
// with an unchanged rule set keep the existing baseline objects, and
// any out-of-band controller mutation invalidates the hash.
func TestRebuildBaselineFastPath(t *testing.T) {
	sys := newLinearSystem(t)
	before := sys.FCM()
	if err := sys.RebuildBaseline(); err != nil {
		t.Fatal(err)
	}
	if sys.FCM() != before {
		t.Fatal("RebuildBaseline regenerated an unchanged baseline")
	}
	// Mutate the controller behind the system's back: the hash must
	// catch it and force a real rebuild.
	ctrl := sys.Controller()
	victim := ctrl.Rules()[0]
	if _, err := ctrl.RemoveRule(victim.ID); err != nil {
		t.Fatal(err)
	}
	if err := sys.RebuildBaseline(); err != nil {
		t.Fatal(err)
	}
	if sys.FCM() == before {
		t.Fatal("RebuildBaseline skipped a changed rule set")
	}
	if got := sys.FCM().RuleSpace(); got != ctrl.RuleSpace() {
		t.Fatalf("rebuilt FCM rule space %d, controller %d", got, ctrl.RuleSpace())
	}
}

// TestSystemLiveUpdates drives randomized live mutations through the
// System wrappers and checks that (a) verdicts match a cold-built
// baseline, and (b) the patched data plane produces clean counters
// against the incrementally maintained FCM.
func TestSystemLiveUpdates(t *testing.T) {
	sys := newLinearSystem(t)
	rng := rand.New(rand.NewSource(7))
	ctrl := sys.Controller()

	for round := 0; round < 6; round++ {
		live := ctrl.Rules()
		var u foces.ChurnUpdate
		var err error
		switch op := rng.Intn(3); {
		case op == 0 || len(live) < 4:
			sw := sys.Topology().Switches()[rng.Intn(len(sys.Topology().Switches()))].ID
			h := sys.Topology().Hosts()[rng.Intn(len(sys.Topology().Hosts()))]
			match, merr := sys.Layout().MatchExact(sys.Layout().Wildcard(), "src_ip", h.IP)
			if merr != nil {
				t.Fatal(merr)
			}
			_, u, err = sys.AddRule(sw, 200+round, match, foces.Action{Type: foces.ActionDrop})
		case op == 1:
			u, err = sys.RemoveRule(live[rng.Intn(len(live))].ID)
		default:
			v := live[rng.Intn(len(live))]
			u, err = sys.ModifyRule(v.ID, v.Priority+1, v.Match, v.Action)
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if u.Epoch != uint64(round+1) || sys.Epoch() != u.Epoch {
			t.Fatalf("round %d: epoch %d (system %d)", round, u.Epoch, sys.Epoch())
		}

		// Simulated counters from the patched data plane must be
		// consistent with the incrementally maintained baseline.
		y, err := sys.ObserveCounters(rand.New(rand.NewSource(int64(round))), 500)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Detect(y, foces.DetectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Anomalous {
			t.Fatalf("round %d: clean traffic flagged by full detection (index %g)", round, res.Index)
		}
		out, err := sys.DetectSliced(y, foces.DetectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Anomalous {
			t.Fatalf("round %d: clean traffic flagged by sliced detection: %v", round, out.Suspects)
		}

		// Verdicts must match a baseline cold-built from the same rules.
		cold, err := churn.NewManager(sys.Topology(), sys.Layout(), ctrl.Rules(), ctrl.RuleSpace(), core.Options{}, churn.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cout, err := cold.DetectSliced(y)
		if err != nil {
			t.Fatal(err)
		}
		if cout.Anomalous != out.Anomalous {
			t.Fatalf("round %d: sliced verdict diverged from cold baseline", round)
		}
	}
	st := sys.ChurnStats()
	if st.Updates != 6 || len(sys.ChurnLog()) != 6 {
		t.Fatalf("churn stats %+v, log %d", st, len(sys.ChurnLog()))
	}
	// A fresh RebuildBaseline now is a no-op: ApplyUpdate kept the hash
	// current.
	before := sys.FCM()
	if err := sys.RebuildBaseline(); err != nil {
		t.Fatal(err)
	}
	if sys.FCM() != before {
		t.Fatal("baseline hash stale after live updates")
	}
}

// TestSystemDetectReconciled exercises the System-level straddling
// window path end to end.
func TestSystemDetectReconciled(t *testing.T) {
	sys := newLinearSystem(t)
	rng := rand.New(rand.NewSource(3))
	// Snapshot a clean window under epoch 0.
	yOld, err := sys.ObserveCounters(rng, 500)
	if err != nil {
		t.Fatal(err)
	}
	from := sys.Epoch()
	// Remove a traffic-carrying rule mid-"window".
	var victim foces.Rule
	for _, fl := range sys.FCM().Flows {
		if len(fl.RuleIDs) >= 3 {
			victim = sys.FCM().Rules[fl.RuleIDs[0]]
			break
		}
	}
	if victim.Switch < 0 {
		t.Fatal("no multi-hop flow")
	}
	if _, err := sys.RemoveRule(victim.ID); err != nil {
		t.Fatal(err)
	}
	// Also add a rule mid-window, so the rule space grows past the old
	// window's length: DetectReconciled must zero-pad yOld rather than
	// reject it (the new row is masked, so the padding never matters).
	if _, _, err := sys.AddRule(victim.Switch, victim.Priority+1, victim.Match, foces.Action{Type: foces.ActionDrop}); err != nil {
		t.Fatal(err)
	}
	if len(yOld) >= len(sys.FCM().Rules) {
		t.Fatalf("rule space did not grow past the old window: %d vs %d rules", len(yOld), len(sys.FCM().Rules))
	}
	masked := sys.AffectedSince(from)
	if len(masked) == 0 {
		t.Fatal("no affected rows recorded")
	}
	// The old window's counters include traffic matched under the old
	// generation on exactly the affected rows; reconciled detection
	// masks them and stays clean, where plain sliced detection may not.
	rec, err := sys.DetectReconciled(yOld, from)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Anomalous {
		t.Fatalf("reconciled detection flagged a straddling window: %v", rec.Suspects)
	}
}

// TestModifyRuleKeepsCounter: an OpenFlow modify rewrites a rule in
// place, so its packet counter survives. A window whose baseline
// snapshot predates the modify of a loaded rule therefore straddles the
// update and is reconciled (the modified row masked) instead of reading
// the rule's switch as reset and masking all of it.
func TestModifyRuleKeepsCounter(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	switches := sortedSwitchIDs(sys)
	rng := rand.New(rand.NewSource(5))
	tm := foces.UniformTraffic(sys.Topology(), 200)
	asm := foces.NewWindowAssembler(switches, foces.AssemblerConfig{WindowBuffer: 4})
	asm.SetEpoch(sys.Epoch())
	push := func() foces.StreamWindow {
		t.Helper()
		if _, err := sys.Network().Run(rng, tm); err != nil {
			t.Fatal(err)
		}
		for _, sw := range switches {
			tbl, err := sys.Network().Table(sw)
			if err != nil {
				t.Fatal(err)
			}
			if err := asm.Push(foces.StreamUpdate{Switch: sw, Counters: tbl.Counters()}); err != nil {
				t.Fatal(err)
			}
		}
		return <-asm.Windows()
	}
	push() // priming window

	// A rule that carried traffic in the priming window.
	var victim foces.Rule
	var tbl *foces.FlowTable
	for _, r := range sys.Controller().Rules() {
		tb, err := sys.Network().Table(r.Switch)
		if err != nil {
			t.Fatal(err)
		}
		if tb.Counters()[r.ID] > 0 {
			victim, tbl = r, tb
			break
		}
	}
	if tbl == nil {
		t.Fatal("no loaded rule")
	}
	before := tbl.Counters()[victim.ID]
	if _, err := sys.ModifyRule(victim.ID, victim.Priority+1, victim.Match, victim.Action); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Counters()[victim.ID]; got != before {
		t.Fatalf("modify restarted rule %d's counter: %d, want %d", victim.ID, got, before)
	}
	if r, ok := tbl.Rule(victim.ID); !ok || r.Priority != victim.Priority+1 {
		t.Fatalf("modify not applied to the table: %+v %v", r, ok)
	}
	asm.SetEpoch(sys.Epoch())

	w := push()
	epoch := w.Epoch
	for _, from := range w.Straddled {
		epoch = min(epoch, from)
	}
	rep, err := sys.Run(foces.Observation{Counters: w.Deltas, RunOptions: foces.RunOptions{Missing: w.Missing, Epoch: epoch}})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Resets) != 0 || rep.Path != foces.PathReconciled {
		t.Fatalf("straddling window: path %q, resets %v, missing %v; want %q", rep.Path, w.Resets, w.Missing, foces.PathReconciled)
	}
	if !slices.Contains(rep.MaskedRows, victim.ID) {
		t.Fatalf("modified row %d not masked: %v", victim.ID, rep.MaskedRows)
	}
}
