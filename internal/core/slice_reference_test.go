package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"foces/internal/controller"
	"foces/internal/fcm"
	"foces/internal/flowtable"
	"foces/internal/topo"
)

// referenceBuildSlices is BuildSlices as it stood when it made one pass
// over every flow history of the network (predecessor sets in maps, a
// rule→slice inverse index for the columns). The per-switch
// construction that reads H's rows must produce the same slices.
func referenceBuildSlices(f *fcm.FCM) ([]Slice, error) {
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
	ruleSlices := make(map[int][]int)
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

func requireSameSlices(t *testing.T, got, want []Slice) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d slices, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Switch != w.Switch || !reflect.DeepEqual(g.RuleRows, w.RuleRows) ||
			!reflect.DeepEqual(g.OwnRows, w.OwnRows) || !reflect.DeepEqual(g.FlowCols, w.FlowCols) {
			t.Fatalf("slice %d (switch %d) differs from the reference:\n got %+v\nwant %+v", i, w.Switch, g, w)
		}
		if !reflect.DeepEqual(g.H.ToDense(), w.H.ToDense()) {
			t.Fatalf("slice %d (switch %d): sub-FCM differs from the reference", i, w.Switch)
		}
	}
}

func TestBuildSlicesEqualReference(t *testing.T) {
	check := func(name string, f *fcm.FCM) {
		t.Helper()
		want, err := referenceBuildSlices(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := BuildSlices(f)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSlices(t, got, want)
		// A restricted build returns exactly the named switches' slices.
		only := map[topo.SwitchID]bool{}
		var subset []Slice
		for i, sl := range want {
			if i%3 == 0 {
				only[sl.Switch] = true
				subset = append(subset, sl)
			}
		}
		got, err = BuildSlicesFor(f, only)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSlices(t, got, subset)
		t.Logf("%s: %d slices", name, len(want))
	}
	check("fig2", fig2FCM(t))
	check("fig3", fig3FCM(t))
	for _, mode := range []controller.PolicyMode{controller.PairExact, controller.DestAggregate} {
		top, err := topo.ByName("fattree4")
		if err != nil {
			t.Fatal(err)
		}
		ctrl, _, err := controller.Bootstrap(top, layout, mode)
		if err != nil {
			t.Fatal(err)
		}
		rules := ctrl.Rules()
		f, err := fcm.Generate(top, layout, rules)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("fattree4/%v", mode), f)
		// Holes in the ID space and truncated-path classes: drop a rule
		// from the middle of some flow's path.
		victim := f.Flows[len(f.Flows)/2].RuleIDs[1]
		var sparse []flowtable.Rule
		for _, r := range rules {
			if r.ID != victim {
				sparse = append(sparse, r)
			}
		}
		f, err = fcm.GenerateSparse(top, layout, sparse, len(rules))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("fattree4/%v minus rule %d", mode, victim), f)
	}
}
