package churn

import (
	"math/rand"
	"reflect"
	"testing"

	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/fcm"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/topo"
)

// requireFreshGeneration checks everything rebuild carries over from the
// previous generation — H, Flow.Pairs, whole slices with their column
// indices, engines — against deriving it again from the manager's own
// current flows, and the flows against a cold generation from the
// controller's rules. A carried-over piece that should have been
// rebuilt shows up as a difference here.
func requireFreshGeneration(t *testing.T, label string, m *Manager, topol *topo.Topology, ctrl *controller.Controller) {
	t.Helper()
	f := m.FCM()
	rows, err := fcm.DenseRows(ctrl.Rules(), ctrl.RuleSpace())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Rules, rows) {
		t.Fatalf("%s: FCM rows differ from the controller's rule set", label)
	}
	// H from the flows' histories.
	flows := make([]*fcm.Flow, len(f.Flows))
	for j, fl := range f.Flows {
		if fl.ID != j {
			t.Fatalf("%s: flow at column %d has ID %d", label, j, fl.ID)
		}
		cp := *fl
		flows[j] = &cp
	}
	fresh, err := fcm.Assemble(topol, layout, rows, flows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.H.ToDense(), fresh.H.ToDense()) {
		t.Fatalf("%s: carried-over H differs from the one its flows assemble to", label)
	}
	// Same classes and pairs as a cold generation (column order differs:
	// survivors stay in place, a cold pass discovers in host order).
	cold, err := fcm.GenerateSparse(topol, layout, ctrl.Rules(), ctrl.RuleSpace())
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Flows) != len(f.Flows) {
		t.Fatalf("%s: %d flows, cold generation has %d", label, len(f.Flows), len(cold.Flows))
	}
	coldPairs := make(map[string][]fcm.Pair, len(cold.Flows))
	for _, fl := range cold.Flows {
		coldPairs[fcm.HistoryKey(fl.RuleIDs)] = fl.Pairs
	}
	for _, fl := range f.Flows {
		want, ok := coldPairs[fcm.HistoryKey(fl.RuleIDs)]
		if !ok {
			t.Fatalf("%s: flow %v is not in the cold generation", label, fl.RuleIDs)
		}
		if !reflect.DeepEqual(fl.Pairs, want) {
			t.Fatalf("%s: flow %v pairs %v, cold generation %v", label, fl.RuleIDs, fl.Pairs, want)
		}
	}
	// Slices, and the engine each one is served by.
	want, err := core.BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Slices()
	if len(got) != len(want) {
		t.Fatalf("%s: %d slices, fresh derivation has %d", label, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Switch != w.Switch || !reflect.DeepEqual(g.RuleRows, w.RuleRows) ||
			!reflect.DeepEqual(g.OwnRows, w.OwnRows) || !reflect.DeepEqual(g.FlowCols, w.FlowCols) {
			t.Fatalf("%s: slice of switch %d differs from a fresh derivation:\n got %+v\nwant %+v", label, w.Switch, g, w)
		}
		if !reflect.DeepEqual(g.H.ToDense(), w.H.ToDense()) {
			t.Fatalf("%s: slice of switch %d: sub-FCM differs from a fresh derivation", label, w.Switch)
		}
		meta := m.sliceMeta[w.Switch]
		if meta == nil || meta.pos != i || !reflect.DeepEqual(meta.rows, w.RuleRows) {
			t.Fatalf("%s: slice of switch %d: stale meta %+v", label, w.Switch, meta)
		}
		if !reflect.DeepEqual(meta.engine.H().ToDense(), w.H.ToDense()) {
			t.Fatalf("%s: slice of switch %d is served by an engine over a different sub-FCM", label, w.Switch)
		}
		for k, col := range w.FlowCols {
			if meta.colUIDs[k] != m.order[col].uid {
				t.Fatalf("%s: slice of switch %d column %d: class uid %d, want %d", label, w.Switch, k, meta.colUIDs[k], m.order[col].uid)
			}
		}
	}
}

// TestCarriedGenerationEqualsFreshDerivation drives randomized updates —
// source-pinned drops (classes die and are born), a drop overlapping
// lower priorities (one class reached through many remainder pieces),
// removals (truncated paths, holes in the ID space), priority bumps
// (nothing born or died: H and almost every slice carried over) — and
// after each one holds the incrementally maintained generation against
// a fresh derivation.
func TestCarriedGenerationEqualsFreshDerivation(t *testing.T) {
	for _, mode := range []controller.PolicyMode{controller.PairExact, controller.DestAggregate} {
		topol, err := topo.FatTree(4)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := controller.New(topol, layout, mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.ComputeRules(); err != nil {
			t.Fatal(err)
		}
		m := seedManager(t, topol, ctrl, Config{})
		requireFreshGeneration(t, "cold seed", m, topol, ctrl)

		rng := rand.New(rand.NewSource(15))
		switches, hosts := topol.Switches(), topol.Hosts()
		var carriedH, carriedSlices int
		for round := 0; round < 24; round++ {
			live := ctrl.Rules()
			var ev controller.RuleChange
			switch round % 4 {
			case 0:
				match, err := layout.MatchExact(layout.Wildcard(), header.FieldSrcIP, hosts[rng.Intn(len(hosts))].IP)
				if err != nil {
					t.Fatal(err)
				}
				r, err := ctrl.AddRule(switches[rng.Intn(len(switches))].ID, 500+round, match, flowtable.Action{Type: flowtable.ActionDrop})
				if err != nil {
					t.Fatal(err)
				}
				ev = controller.RuleChange{Op: controller.RuleAdded, Rule: r}
			case 1:
				match, err := layout.MatchExact(layout.Wildcard(), header.FieldDstPort, uint64(80+round))
				if err != nil {
					t.Fatal(err)
				}
				r, err := ctrl.AddRule(switches[rng.Intn(len(switches))].ID, 1000, match, flowtable.Action{Type: flowtable.ActionDrop})
				if err != nil {
					t.Fatal(err)
				}
				ev = controller.RuleChange{Op: controller.RuleAdded, Rule: r}
			case 2:
				r, err := ctrl.RemoveRule(live[rng.Intn(len(live))].ID)
				if err != nil {
					t.Fatal(err)
				}
				ev = controller.RuleChange{Op: controller.RuleRemoved, Rule: r}
			default:
				victim := live[rng.Intn(len(live))]
				r, err := ctrl.ModifyRule(victim.ID, victim.Priority+1, victim.Match, victim.Action)
				if err != nil {
					t.Fatal(err)
				}
				ev = controller.RuleChange{Op: controller.RuleModified, Rule: r, Prev: victim}
			}
			prevH, prevSlices := m.FCM().H, m.Slices()
			u, err := m.Apply([]controller.RuleChange{ev})
			if err != nil {
				t.Fatalf("%v round %d (%s rule %d): %v", mode, round, ev.Op, ev.Rule.ID, err)
			}
			requireFreshGeneration(t, ev.Op.String(), m, topol, ctrl)
			if m.FCM().H == prevH {
				carriedH++
			}
			byPrev := make(map[topo.SwitchID]core.Slice, len(prevSlices))
			for _, sl := range prevSlices {
				byPrev[sl.Switch] = sl
			}
			for _, sl := range m.Slices() {
				if prev, ok := byPrev[sl.Switch]; ok && prev.H == sl.H {
					carriedSlices++
				}
			}
			if got := u.SlicesReused + u.SlicesUpdated + u.SlicesRefactored; got != len(m.Slices()) {
				t.Fatalf("%v round %d: %d dispositions for %d slices", mode, round, got, len(m.Slices()))
			}
		}
		// The test means nothing if nothing was ever carried over.
		if carriedH == 0 || carriedSlices == 0 {
			t.Fatalf("%v: carried over H %d times and %d slices in 24 updates", mode, carriedH, carriedSlices)
		}
	}
}
