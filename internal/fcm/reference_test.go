package fcm

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"foces/internal/controller"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/topo"
)

// The reference generator is FCM generation as it stood before the
// symbolic walk went candidate-first and allocation-light: the table
// walk intersects every rule with every remainder piece, the walker
// copies its history at every hop and records every arrival, sources
// are traced one by one. Generate must reproduce its FCM exactly — H,
// column order, RuleIDs, Pairs and Flow.Space (the probe planner
// synthesises packets from it) — on every table without overlapping
// priorities, where no class is ever reached twice.

// referenceSymbolicMatches is flowtable's reference walk over a dumped
// (priority-ordered) rule list.
func referenceSymbolicMatches(rules []flowtable.Rule, s header.Space) ([]flowtable.SymbolicMatch, []header.Space) {
	var out []flowtable.SymbolicMatch
	remaining := []header.Space{s}
	for _, r := range rules {
		if len(remaining) == 0 {
			break
		}
		var next []header.Space
		for _, rem := range remaining {
			hit, ok := rem.Intersect(r.Match)
			if !ok {
				next = append(next, rem)
				continue
			}
			out = append(out, flowtable.SymbolicMatch{Rule: r, Space: hit})
			next = append(next, header.Subtract(rem, r.Match)...)
		}
		remaining = next
	}
	return out, remaining
}

type referenceWalker struct {
	topol   *topo.Topology
	tables  map[topo.SwitchID][]flowtable.Rule
	src     *topo.Host
	records []TraceRecord
}

func (w *referenceWalker) walk(sw topo.SwitchID, space header.Space, history []int, hops int) error {
	if hops > maxSymbolicHops {
		return fmt.Errorf("reference: symbolic loop from host %q", w.src.Name)
	}
	matches, remainder := referenceSymbolicMatches(w.tables[sw], space)
	if len(remainder) > 0 && len(history) > 0 {
		w.record(-1, append([]int(nil), history...), remainder[0])
	}
	for _, m := range matches {
		hist := append(append([]int(nil), history...), m.Rule.ID)
		switch m.Rule.Action.Type {
		case flowtable.ActionDrop:
			w.record(-1, hist, m.Space)
		case flowtable.ActionDeliver:
			peer, err := w.topol.PeerAt(sw, m.Rule.Action.Port)
			if err != nil {
				return err
			}
			if peer.Kind != topo.PeerHost {
				return fmt.Errorf("reference: rule %d delivers to non-host port", m.Rule.ID)
			}
			if peer.Host == w.src.ID {
				continue
			}
			w.record(peer.Host, hist, m.Space)
		case flowtable.ActionOutput:
			peer, err := w.topol.PeerAt(sw, m.Rule.Action.Port)
			if err != nil {
				return err
			}
			switch peer.Kind {
			case topo.PeerSwitch:
				if err := w.walk(peer.Switch, m.Space, hist, hops+1); err != nil {
					return err
				}
			case topo.PeerHost:
				if peer.Host != w.src.ID {
					w.record(peer.Host, hist, m.Space)
				}
			default:
				w.record(-1, hist, m.Space)
			}
		}
	}
	return nil
}

func (w *referenceWalker) record(dst topo.HostID, history []int, space header.Space) {
	w.records = append(w.records, TraceRecord{History: history, Dst: dst, Space: space})
}

// referenceTables dumps the intent tables in priority order.
func referenceTables(t *testing.T, top *topo.Topology, rules []flowtable.Rule) map[topo.SwitchID][]flowtable.Rule {
	t.Helper()
	built, err := BuildTables(top, rules)
	if err != nil {
		t.Fatal(err)
	}
	tables := make(map[topo.SwitchID][]flowtable.Rule, len(built))
	for sw, tbl := range built {
		tables[sw] = tbl.Dump()
	}
	return tables
}

func referenceTrace(t *testing.T, top *topo.Topology, tables map[topo.SwitchID][]flowtable.Rule, h *topo.Host) []TraceRecord {
	t.Helper()
	pin, err := SourcePin(layout, h)
	if err != nil {
		t.Fatal(err)
	}
	w := &referenceWalker{topol: top, tables: tables, src: h}
	if err := w.walk(h.Attach, pin, nil, 0); err != nil {
		t.Fatal(err)
	}
	return w.records
}

// referenceFlows traces every host in order and merges the records into
// logical flows in first-discovery order.
func referenceFlows(t *testing.T, top *topo.Topology, rules []flowtable.Rule) []*Flow {
	t.Helper()
	tables := referenceTables(t, top, rules)
	classes := make(map[string]*Flow)
	var order []*Flow
	for _, h := range top.Hosts() {
		for _, rec := range referenceTrace(t, top, tables, h) {
			key := historyKey(rec.History)
			if f, ok := classes[key]; ok {
				f.Pairs = append(f.Pairs, Pair{Src: h.ID, Dst: rec.Dst})
				continue
			}
			f := &Flow{ID: len(order), RuleIDs: rec.History, Pairs: []Pair{{Src: h.ID, Dst: rec.Dst}}, Space: rec.Space}
			classes[key] = f
			order = append(order, f)
		}
	}
	return order
}

// requireSameTraces compares TraceSource with the reference walk record
// by record for the given sources — the check the slow cases fall back
// to when a whole-network reference walk does not fit the time budget.
func requireSameTraces(t *testing.T, top *topo.Topology, rules []flowtable.Rule, hosts []*topo.Host) {
	t.Helper()
	tables, err := BuildTables(top, rules)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TraceSources(top, layout, tables, hosts)
	if err != nil {
		t.Fatal(err)
	}
	refTables := referenceTables(t, top, rules)
	for i, h := range hosts {
		want := referenceTrace(t, top, refTables, h)
		if len(got[i].Records) != len(want) {
			t.Fatalf("host %s: %d records, reference has %d", h.Name, len(got[i].Records), len(want))
		}
		for k, w := range want {
			g := got[i].Records[k]
			if g.Dst != w.Dst || !reflect.DeepEqual(g.History, w.History) || !g.Space.Equal(w.Space) {
				t.Fatalf("host %s record %d: %v→%d %v, reference %v→%d %v", h.Name, k, g.History, g.Dst, g.Space, w.History, w.Dst, w.Space)
			}
		}
	}
}

type hEntry struct{ row, col int }

// requireSameFCM compares got with the reference flows field by field,
// and got.H with the 0/1 triplets the reference histories imply.
func requireSameFCM(t *testing.T, got *FCM, want []*Flow) {
	t.Helper()
	if len(got.Flows) != len(want) {
		t.Fatalf("%d flows, reference has %d", len(got.Flows), len(want))
	}
	var wantH []hEntry
	for j, w := range want {
		g := got.Flows[j]
		if g.ID != j || !reflect.DeepEqual(g.RuleIDs, w.RuleIDs) {
			t.Fatalf("flow %d: ID %d history %v, reference %v", j, g.ID, g.RuleIDs, w.RuleIDs)
		}
		if !reflect.DeepEqual(g.Pairs, w.Pairs) {
			t.Fatalf("flow %d %v: pairs %v, reference %v", j, g.RuleIDs, g.Pairs, w.Pairs)
		}
		if !g.Space.Equal(w.Space) {
			t.Fatalf("flow %d %v: space %v, reference %v", j, g.RuleIDs, g.Space, w.Space)
		}
		seen := make(map[int]bool)
		for _, rid := range w.RuleIDs {
			if !seen[rid] {
				seen[rid] = true
				wantH = append(wantH, hEntry{rid, j})
			}
		}
	}
	sort.Slice(wantH, func(a, b int) bool {
		if wantH[a].row != wantH[b].row {
			return wantH[a].row < wantH[b].row
		}
		return wantH[a].col < wantH[b].col
	})
	var gotH []hEntry
	for i := 0; i < got.H.Rows(); i++ {
		got.H.RowEntries(i, func(col int, v float64) {
			if v != 1 {
				t.Fatalf("H[%d][%d] = %g, want 1", i, col, v)
			}
			gotH = append(gotH, hEntry{i, col})
		})
	}
	if !reflect.DeepEqual(gotH, wantH) {
		t.Fatalf("H has %d entries that differ from the reference's %d", len(gotH), len(wantH))
	}
}

// firstPairs returns the first k ordered host pairs in source-major
// order (the bench's FatTree(8) subset).
func firstPairs(top *topo.Topology, k int) [][2]topo.HostID {
	var pairs [][2]topo.HostID
	for _, src := range top.Hosts() {
		for _, dst := range top.Hosts() {
			if src.ID != dst.ID && len(pairs) < k {
				pairs = append(pairs, [2]topo.HostID{src.ID, dst.ID})
			}
		}
	}
	return pairs
}

func TestGenerateEqualsReference(t *testing.T) {
	cases := []struct {
		topo  string
		mode  controller.PolicyMode
		pairs int  // 0 = all pairs
		slow  bool // the reference walk is quadratic in table size
	}{
		{"fattree4", controller.PairExact, 0, false},
		{"fattree4", controller.DestAggregate, 0, false},
		{"fattree8", controller.PairExact, 960, true},
		{"fattree8", controller.DestAggregate, 0, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%v", tc.topo, tc.mode), func(t *testing.T) {
			top, err := topo.ByName(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			c, err := controller.New(top, layout, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			if tc.pairs > 0 {
				err = c.ComputeRulesForPairs(firstPairs(top, tc.pairs))
			} else {
				err = c.ComputeRules()
			}
			if err != nil {
				t.Fatal(err)
			}
			rules := c.Rules()
			got, err := Generate(top, layout, rules)
			if err != nil {
				t.Fatal(err)
			}
			if tc.slow && (testing.Short() || raceEnabled) {
				// The whole-network reference walk takes minutes under
				// the race detector: compare a spread of sources instead.
				var sample []*topo.Host
				for i, h := range top.Hosts() {
					if i%16 == 3 {
						sample = append(sample, h)
					}
				}
				requireSameTraces(t, top, rules, sample)
				return
			}
			requireSameFCM(t, got, referenceFlows(t, top, rules))

			// An incomplete rule set: a mid-path rule removed leaves a
			// truncated-path class and a hole in the ID space.
			victim := got.Flows[len(got.Flows)/2].RuleIDs[1]
			var sparse []flowtable.Rule
			for _, r := range rules {
				if r.ID != victim {
					sparse = append(sparse, r)
				}
			}
			got, err = GenerateSparse(top, layout, sparse, len(rules))
			if err != nil {
				t.Fatal(err)
			}
			want := referenceFlows(t, top, sparse)
			truncated := false
			for _, f := range want {
				for _, p := range f.Pairs {
					truncated = truncated || (p.Dst == -1 && f.RuleIDs[len(f.RuleIDs)-1] != victim)
				}
			}
			if !truncated {
				t.Fatalf("removing rule %d left no truncated-path class", victim)
			}
			requireSameFCM(t, got, want)
		})
	}
}

// TestOverlappingPrioritiesKeepOnePairPerClass pins the duplicate-Pairs
// fix: a lower-priority rule reached through several pieces of a carved
// remainder is walked once per piece, and every walk used to append the
// same (src, dst) to the flow — sixteen copies here, one per dst_port
// bit the drop rule splits on — so VolumeVector read sixteen times the
// offered volume.
func TestOverlappingPrioritiesKeepOnePairPerClass(t *testing.T) {
	top, err := topo.Linear(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := controller.New(top, layout, controller.DestAggregate)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ComputeRules(); err != nil {
		t.Fatal(err)
	}
	web, err := layout.MatchExact(layout.Wildcard(), header.FieldDstPort, 80)
	if err != nil {
		t.Fatal(err)
	}
	first := top.Switches()[0].ID
	if _, err := c.AddRule(first, 1000, web, flowtable.Action{Type: flowtable.ActionDrop}); err != nil {
		t.Fatal(err)
	}
	rules := c.Rules()
	f, err := Generate(top, layout, rules)
	if err != nil {
		t.Fatal(err)
	}
	for _, fl := range f.Flows {
		seen := make(map[Pair]bool)
		for _, p := range fl.Pairs {
			if seen[p] {
				t.Fatalf("flow %v carries pair %v more than once: %v", fl.RuleIDs, p, fl.Pairs)
			}
			seen[p] = true
		}
	}
	hosts := top.Hosts()
	pair := Pair{Src: hosts[0].ID, Dst: hosts[1].ID}
	fl, ok := f.FlowByPair(pair.Src, pair.Dst)
	if !ok {
		t.Fatalf("no flow for %v", pair)
	}
	if x := f.VolumeVector(map[Pair]uint64{pair: 10}); x[fl.ID] != 10 {
		t.Fatalf("flow %v volume %g for an offered 10", fl.RuleIDs, x[fl.ID])
	}
	// Against the reference the FCM differs by the duplicates only, and
	// the reference does have them: the walk under test is the overlapping
	// one the fix is about.
	want := referenceFlows(t, top, rules)
	duplicates := 0
	for _, w := range want {
		var pairs []Pair
		for _, p := range w.Pairs {
			if len(pairs) > 0 && pairs[len(pairs)-1] == p {
				duplicates++
				continue
			}
			pairs = append(pairs, p)
		}
		w.Pairs = pairs
	}
	if duplicates != 2*15 {
		t.Fatalf("reference walk has %d duplicate pairs, want 15 extra arrivals in each direction", duplicates)
	}
	requireSameFCM(t, f, want)
}
