package churn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/fcm"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/matrix"
	"foces/internal/topo"
)

var layout = header.FiveTuple()

func seedController(t *testing.T, topol *topo.Topology) *controller.Controller {
	t.Helper()
	c, err := controller.New(topol, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ComputeRules(); err != nil {
		t.Fatal(err)
	}
	return c
}

func seedManager(t *testing.T, topol *topo.Topology, ctrl *controller.Controller, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(topol, layout, ctrl.Rules(), ctrl.RuleSpace(), core.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// allPairVolumes offers distinct per-pair volumes so the expected
// counter vector is non-degenerate.
func allPairVolumes(topol *topo.Topology) map[fcm.Pair]uint64 {
	vol := make(map[fcm.Pair]uint64)
	for _, a := range topol.Hosts() {
		for _, b := range topol.Hosts() {
			if a.ID == b.ID {
				continue
			}
			vol[fcm.Pair{Src: a.ID, Dst: b.ID}] = 100 + 13*uint64(a.ID) + 7*uint64(b.ID)
		}
	}
	return vol
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	d := math.Abs(a - b)
	return d <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// compareManagers asserts that the incrementally maintained manager and
// a cold-built one produce identical detection verdicts (sliced and
// full) on the same counter vector.
func compareManagers(t *testing.T, inc, cold *Manager, y []float64, label string) {
	t.Helper()
	si, err := inc.DetectSliced(y)
	if err != nil {
		t.Fatalf("%s: incremental sliced: %v", label, err)
	}
	sc, err := cold.DetectSliced(y)
	if err != nil {
		t.Fatalf("%s: cold sliced: %v", label, err)
	}
	if si.Anomalous != sc.Anomalous {
		t.Fatalf("%s: sliced verdict diverged: incremental=%v cold=%v", label, si.Anomalous, sc.Anomalous)
	}
	if len(si.Suspects) != len(sc.Suspects) {
		t.Fatalf("%s: suspects diverged: %v vs %v", label, si.Suspects, sc.Suspects)
	}
	for i := range si.Suspects {
		if si.Suspects[i] != sc.Suspects[i] {
			t.Fatalf("%s: suspects diverged: %v vs %v", label, si.Suspects, sc.Suspects)
		}
	}
	idx := make(map[topo.SwitchID]core.Result, len(sc.PerSwitch))
	for _, pr := range sc.PerSwitch {
		idx[pr.Switch] = pr.Result
	}
	for _, pr := range si.PerSwitch {
		cr, ok := idx[pr.Switch]
		if !ok {
			t.Fatalf("%s: cold run has no slice for switch %d", label, pr.Switch)
		}
		if pr.Result.Anomalous != cr.Anomalous {
			t.Fatalf("%s: switch %d verdict diverged: incremental=%v cold=%v (index %g vs %g)",
				label, pr.Switch, pr.Result.Anomalous, cr.Anomalous, pr.Result.Index, cr.Index)
		}
		if !relClose(pr.Result.Index, cr.Index, 1e-6) {
			t.Fatalf("%s: switch %d index drifted: incremental=%g cold=%g", label, pr.Switch, pr.Result.Index, cr.Index)
		}
	}
	fi, err := inc.DetectFull(y)
	if err != nil {
		t.Fatalf("%s: incremental full: %v", label, err)
	}
	fc, err := cold.DetectFull(y)
	if err != nil {
		t.Fatalf("%s: cold full: %v", label, err)
	}
	if fi.Anomalous != fc.Anomalous {
		t.Fatalf("%s: full verdict diverged: incremental=%v cold=%v", label, fi.Anomalous, fc.Anomalous)
	}
	if !relClose(fi.Index, fc.Index, 1e-6) {
		t.Fatalf("%s: full index drifted: incremental=%g cold=%g", label, fi.Index, fc.Index)
	}
}

func TestColdManagerMatchesGenerate(t *testing.T) {
	topol, err := topo.Linear(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := seedController(t, topol)
	m := seedManager(t, topol, ctrl, Config{})
	want, err := fcm.Generate(topol, layout, ctrl.Rules())
	if err != nil {
		t.Fatal(err)
	}
	got := m.FCM()
	if got.H.Rows() != want.H.Rows() || got.H.Cols() != want.H.Cols() {
		t.Fatalf("FCM shape %dx%d, want %dx%d", got.H.Rows(), got.H.Cols(), want.H.Rows(), want.H.Cols())
	}
	if len(got.Flows) != len(want.Flows) {
		t.Fatalf("%d flows, want %d", len(got.Flows), len(want.Flows))
	}
	// Cold seed must reproduce GenerateSparse column-for-column (same
	// discovery order), so the matrices are identical, not just
	// permutation-equivalent.
	for j, fl := range got.Flows {
		wk := fcm.HistoryKey(want.Flows[j].RuleIDs)
		gk := fcm.HistoryKey(fl.RuleIDs)
		if gk != wk {
			t.Fatalf("flow %d history %v, want %v", j, fl.RuleIDs, want.Flows[j].RuleIDs)
		}
	}
	if m.Epoch() != 0 {
		t.Fatalf("cold manager epoch = %d", m.Epoch())
	}
}

// TestApplyIncrementalMatchesCold is the property test from the issue:
// after N randomized controller mutations applied incrementally, the
// manager's detection verdicts are identical to a manager cold-built
// from the final rule set — on clean and on anomalous counter vectors.
func TestApplyIncrementalMatchesCold(t *testing.T) {
	topol, err := topo.Linear(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := seedController(t, topol)
	mgr := seedManager(t, topol, ctrl, Config{})

	var batch []controller.RuleChange
	ctrl.SetChangeObserver(func(ch []controller.RuleChange) { batch = append(batch, ch...) })

	rng := rand.New(rand.NewSource(42))
	switches := topol.Switches()
	hosts := topol.Hosts()
	vol := allPairVolumes(topol)

	const rounds = 12
	for round := 0; round < rounds; round++ {
		batch = batch[:0]
		nev := 1 + rng.Intn(3)
		for e := 0; e < nev; e++ {
			live := ctrl.Rules()
			switch op := rng.Intn(3); {
			case op == 0 || len(live) < 4:
				// Add a high-priority src-pinned drop rule: diverts that
				// source's traffic on one switch.
				sw := switches[rng.Intn(len(switches))].ID
				h := hosts[rng.Intn(len(hosts))]
				match, err := layout.MatchExact(layout.Wildcard(), header.FieldSrcIP, h.IP)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ctrl.AddRule(sw, 100+round, match, flowtable.Action{Type: flowtable.ActionDrop}); err != nil {
					t.Fatal(err)
				}
			case op == 1:
				victim := live[rng.Intn(len(live))]
				if _, err := ctrl.RemoveRule(victim.ID); err != nil {
					t.Fatal(err)
				}
			default:
				victim := live[rng.Intn(len(live))]
				if _, err := ctrl.ModifyRule(victim.ID, victim.Priority+1, victim.Match, victim.Action); err != nil {
					t.Fatal(err)
				}
			}
		}
		u, err := mgr.Apply(append([]controller.RuleChange(nil), batch...))
		if err != nil {
			t.Fatalf("round %d: Apply: %v", round, err)
		}
		if u.Epoch != uint64(round+1) || mgr.Epoch() != u.Epoch {
			t.Fatalf("round %d: epoch %d (manager %d)", round, u.Epoch, mgr.Epoch())
		}
		if u.Retraced == 0 {
			t.Fatalf("round %d: no sources retraced for %d events", round, len(u.Events))
		}

		cold := seedManager(t, topol, ctrl, Config{})
		if mgr.RuleSpace() != cold.RuleSpace() || mgr.RuleSpace() != ctrl.RuleSpace() {
			t.Fatalf("round %d: rule space diverged: inc=%d cold=%d ctrl=%d",
				round, mgr.RuleSpace(), cold.RuleSpace(), ctrl.RuleSpace())
		}
		y, err := mgr.FCM().ExpectedCounters(vol)
		if err != nil {
			t.Fatal(err)
		}
		yc, err := cold.FCM().ExpectedCounters(vol)
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if !relClose(y[i], yc[i], 1e-9) {
				t.Fatalf("round %d: expected counters diverged at row %d: %g vs %g", round, i, y[i], yc[i])
			}
		}
		compareManagers(t, mgr, cold, y, "clean")

		// Corrupt one traffic-carrying live rule's counter: both
		// engines must agree on the anomaly too.
		bad := append([]float64(nil), y...)
		for i := range bad {
			if bad[i] > 0 && !mgr.FCM().IsPlaceholder(i) {
				bad[i] *= 3
				break
			}
		}
		compareManagers(t, mgr, cold, bad, "anomalous")
	}

	st := mgr.Stats()
	if st.Updates != rounds || st.Epoch != rounds {
		t.Fatalf("stats = %+v", st)
	}
	if st.SlicesReused == 0 {
		t.Fatalf("no slice engine ever reused across %d localized updates: %+v", rounds, st)
	}
	if len(mgr.Updates()) != rounds {
		t.Fatalf("log has %d updates", len(mgr.Updates()))
	}
}

func TestApplyValidation(t *testing.T) {
	topol, err := topo.Linear(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := seedController(t, topol)
	mgr := seedManager(t, topol, ctrl, Config{})
	sw := topol.Switches()[0].ID
	live := ctrl.Rules()[0]
	cases := []struct {
		name   string
		events []controller.RuleChange
	}{
		{"empty batch", nil},
		{"add below rule space", []controller.RuleChange{{
			Op:   controller.RuleAdded,
			Rule: flowtable.Rule{ID: live.ID, Switch: sw, Match: layout.Wildcard(), Action: flowtable.Action{Type: flowtable.ActionDrop}},
		}}},
		{"add on unknown switch", []controller.RuleChange{{
			Op:   controller.RuleAdded,
			Rule: flowtable.Rule{ID: ctrl.RuleSpace(), Switch: topo.SwitchID(9999), Match: layout.Wildcard(), Action: flowtable.Action{Type: flowtable.ActionDrop}},
		}}},
		{"remove unknown rule", []controller.RuleChange{{
			Op:   controller.RuleRemoved,
			Rule: flowtable.Rule{ID: ctrl.RuleSpace() + 5, Switch: sw},
		}}},
		{"modify across switches", []controller.RuleChange{{
			Op:   controller.RuleModified,
			Rule: flowtable.Rule{ID: live.ID, Switch: live.Switch + 1, Match: live.Match, Action: live.Action},
		}}},
		{"invalid op", []controller.RuleChange{{Rule: live}}},
	}
	for _, tc := range cases {
		if _, err := mgr.Apply(tc.events); err == nil {
			t.Errorf("%s: Apply succeeded", tc.name)
		}
	}
	if mgr.Epoch() != 0 {
		t.Fatalf("rejected batches advanced the epoch to %d", mgr.Epoch())
	}
}

// TestAffectedSinceUnion checks the epoch log's window-reconciliation
// query: the union over (from, current] and the reuse of Update data.
func TestAffectedSinceUnion(t *testing.T) {
	topol, err := topo.Linear(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := seedController(t, topol)
	mgr := seedManager(t, topol, ctrl, Config{})
	var batch []controller.RuleChange
	ctrl.SetChangeObserver(func(ch []controller.RuleChange) { batch = append(batch, ch...) })

	perEpoch := make([][]int, 0, 3)
	for i := 0; i < 3; i++ {
		batch = batch[:0]
		victim := ctrl.Rules()[0]
		if _, err := ctrl.RemoveRule(victim.ID); err != nil {
			t.Fatal(err)
		}
		u, err := mgr.Apply(batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(u.Affected) == 0 {
			t.Fatalf("epoch %d: empty affected set", u.Epoch)
		}
		found := false
		for _, rid := range u.Affected {
			if rid == victim.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("epoch %d: affected %v misses removed rule %d", u.Epoch, u.Affected, victim.ID)
		}
		perEpoch = append(perEpoch, u.Affected)
	}
	union := make(map[int]bool)
	for _, rows := range perEpoch[1:] {
		for _, rid := range rows {
			union[rid] = true
		}
	}
	got := mgr.AffectedSince(1)
	if len(got) != len(union) {
		t.Fatalf("AffectedSince(1) = %v, want union of epochs 2..3 (%d rows)", got, len(union))
	}
	for _, rid := range got {
		if !union[rid] {
			t.Fatalf("AffectedSince(1) contains %d, not in union", rid)
		}
	}
	if rows := mgr.AffectedSince(mgr.Epoch()); len(rows) != 0 {
		t.Fatalf("AffectedSince(current) = %v, want empty", rows)
	}
}

// TestDetectReconciledMasksStraddle simulates a counter window that
// straddles a rule update: counters on rows the update touched are
// garbage relative to the new baseline. Plain sliced detection misreads
// that as a forwarding anomaly; the reconciled path masks exactly the
// affected rows and stays clean.
func TestDetectReconciledMasksStraddle(t *testing.T) {
	topol, err := topo.Linear(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := seedController(t, topol)
	mgr := seedManager(t, topol, ctrl, Config{})
	var batch []controller.RuleChange
	ctrl.SetChangeObserver(func(ch []controller.RuleChange) { batch = append(batch, ch...) })

	// Remove a traffic-carrying rule (first rule of some multi-hop
	// flow) so the update drops/creates flow classes.
	var victim flowtable.Rule
	for _, fl := range mgr.FCM().Flows {
		if len(fl.RuleIDs) >= 3 {
			victim = mgr.FCM().Rules[fl.RuleIDs[0]]
			break
		}
	}
	if victim.Switch < 0 {
		t.Fatal("no multi-hop flow found")
	}
	from := mgr.Epoch()
	if _, err := ctrl.RemoveRule(victim.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Apply(batch); err != nil {
		t.Fatal(err)
	}

	vol := allPairVolumes(topol)
	y, err := mgr.FCM().ExpectedCounters(vol)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := mgr.DetectSliced(y)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Anomalous {
		t.Fatalf("clean post-update vector flagged: %+v", clean.Suspects)
	}

	// Corrupt every live affected row — the straddling window's mix of
	// two rule generations.
	masked := mgr.AffectedSince(from)
	if len(masked) == 0 {
		t.Fatal("update produced no affected rows")
	}
	bad := append([]float64(nil), y...)
	corrupted := 0
	for _, rid := range masked {
		if !mgr.FCM().IsPlaceholder(rid) {
			bad[rid] = bad[rid]*2 + 5000
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no live affected rows to corrupt")
	}
	naive, err := mgr.DetectSliced(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Anomalous {
		t.Fatal("unmasked detection did not flag the straddling window (corruption too weak for the test)")
	}
	rec, err := mgr.DetectReconciled(bad, from)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Anomalous {
		t.Fatalf("reconciled detection still anomalous: suspects %v", rec.Suspects)
	}
	// With from == current epoch nothing is masked: identical to
	// DetectSliced.
	cur, err := mgr.DetectReconciled(bad, mgr.Epoch())
	if err != nil {
		t.Fatal(err)
	}
	if cur.Anomalous != naive.Anomalous {
		t.Fatal("DetectReconciled(current epoch) diverged from DetectSliced")
	}
}

// TestSliceDispositionCounts checks that a localized update leaves
// untouched slices' engines fully reused and accounts for every slice.
func TestSliceDispositionCounts(t *testing.T) {
	topol, err := topo.Linear(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := seedController(t, topol)
	mgr := seedManager(t, topol, ctrl, Config{})
	var batch []controller.RuleChange
	ctrl.SetChangeObserver(func(ch []controller.RuleChange) { batch = append(batch, ch...) })

	// A priority bump with identical match/action changes no
	// forwarding: every class survives, every slice row set survives —
	// all engines must be reused.
	r0 := ctrl.Rules()[0]
	if _, err := ctrl.ModifyRule(r0.ID, r0.Priority+1, r0.Match, r0.Action); err != nil {
		t.Fatal(err)
	}
	u, err := mgr.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	total := len(mgr.Slices())
	if u.SlicesReused+u.SlicesUpdated+u.SlicesRefactored != total {
		t.Fatalf("dispositions %d+%d+%d don't cover %d slices",
			u.SlicesReused, u.SlicesUpdated, u.SlicesRefactored, total)
	}
	if u.SlicesReused != total {
		t.Fatalf("no-op forwarding change rebuilt engines: %+v", u)
	}
	if u.Retraced == 0 {
		t.Fatal("modify on a visited switch should re-trace its sources")
	}
}

// TestFullEngineLazy pins the lazy Algorithm 1 policy: updates do not
// rebuild it; the first Detect after an update does, exactly once.
func TestFullEngineLazy(t *testing.T) {
	topol, err := topo.Linear(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := seedController(t, topol)
	mgr := seedManager(t, topol, ctrl, Config{})
	var batch []controller.RuleChange
	ctrl.SetChangeObserver(func(ch []controller.RuleChange) { batch = append(batch, ch...) })
	if mgr.Stats().FullRebuilds != 0 {
		t.Fatal("cold seed built the full engine eagerly")
	}
	if _, err := mgr.Full(); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Full(); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().FullRebuilds; got != 1 {
		t.Fatalf("FullRebuilds = %d after two Full() calls, want 1", got)
	}
	victim := ctrl.Rules()[0]
	if _, err := ctrl.RemoveRule(victim.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Apply(batch); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().FullRebuilds; got != 1 {
		t.Fatalf("Apply rebuilt the full engine eagerly: FullRebuilds = %d", got)
	}
	if _, err := mgr.Full(); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().FullRebuilds; got != 2 {
		t.Fatalf("FullRebuilds = %d after post-update Full(), want 2", got)
	}
}

// TestRankOneRepairFailureFallsBackToRefactor pins the hardened repair
// contract: when downdating the removed rows drives the slice Gram
// singular, rankOneRepair reports "refactor me" (nil engine, no error)
// instead of failing the rebuild, and the serving engine's factor is
// untouched — the failed pass poisoned only the throwaway clone.
func TestRankOneRepairFailureFallsBackToRefactor(t *testing.T) {
	hOld, err := matrix.NewCSR(3, 2, []matrix.Triplet{
		{Row: 0, Col: 0, Val: 1},
		{Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 0, Val: 1}, {Row: 2, Col: 1, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewDetector(hOld, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := &sliceMeta{rows: []int{10, 11, 12}, engine: eng}
	// Removing rows 10 and 11 leaves only the [1,1] row: the Gram of the
	// remaining slice is exactly singular, so the second downdate must
	// fail not-positive-definite.
	hNew, err := matrix.NewCSR(1, 2, []matrix.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sl := core.Slice{RuleRows: []int{12}, H: hNew}
	m := &Manager{opts: core.Options{}, cfg: Config{UpdateThreshold: 8}}
	got, ch, err := m.rankOneRepair(sl, old, []int{10, 11}, nil)
	if err != nil {
		t.Fatalf("repair failure must fall back, not error: %v", err)
	}
	if got != nil || ch != nil {
		t.Fatal("singular repair reported success")
	}
	// The serving engine still solves: the failed pass never touched it.
	prep := old.engine.Prepared()
	if prep == nil {
		t.Fatal("old engine lost its prepared state")
	}
	f := prep.CloneFactor()
	if f == nil || !f.Valid() {
		t.Fatal("serving factor poisoned by a clone's failed repair")
	}
	if _, err := prep.Solve([]float64{1, 1, 2}); err != nil {
		t.Fatalf("serving engine no longer solves: %v", err)
	}
}

// TestWideSliceRefactorsInsteadOfRepairing: a wide slice (fewer rules
// than flows) is prepared in dual form, whose HHᵀ factor no row update
// can maintain. A small row delta on it must therefore come back
// refactored — never repaired, never a SliceChange for replicas to
// replay — and replaying a change against such an engine is an error,
// not a panic.
func TestWideSliceRefactorsInsteadOfRepairing(t *testing.T) {
	hOld, err := matrix.NewCSR(3, 5, []matrix.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 1, Val: 1}, {Row: 1, Col: 2, Val: 1}, {Row: 1, Col: 3, Val: 1},
		{Row: 2, Col: 3, Val: 1}, {Row: 2, Col: 4, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewDetector(hOld, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.PrepareStats().Dual || eng.Prepared().CloneFactor() != nil {
		t.Fatal("a 3x5 slice was not prepared in dual form")
	}
	uids := []uint64{1, 2, 3, 4, 5}
	old := &sliceMeta{rows: []int{10, 11, 12}, colUIDs: uids, engine: eng}
	// Rule 11 goes away: same column classes, one row removed, well
	// inside the update threshold — the shape rankOneRepair exists for.
	hNew, err := matrix.NewCSR(2, 5, []matrix.Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 3, Val: 1}, {Row: 1, Col: 4, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sl := core.Slice{RuleRows: []int{10, 12}, H: hNew}
	m := &Manager{opts: core.Options{}, cfg: Config{UpdateThreshold: 8}}
	if got, ch, err := m.rankOneRepair(sl, old, []int{11}, nil); got != nil || ch != nil || err != nil {
		t.Fatalf("rankOneRepair on a dual engine: engine %v, change %v, err %v", got, ch, err)
	}
	got, disp, ch, err := m.buildSliceEngine(sl, uids, old)
	if err != nil {
		t.Fatal(err)
	}
	if disp != sliceRefactored || ch != nil {
		t.Fatalf("disposition %d with change %v, want refactored and none", disp, ch)
	}
	if !got.PrepareStats().Dual {
		t.Fatal("the refactored 2x5 slice is not dual")
	}
	if res, err := got.Detect([]float64{300, 500}); err != nil || res.Anomalous {
		t.Fatalf("refactored engine: %+v, %v", res, err)
	}

	change := SliceChange{Removed: []RowVec{{RuleID: 11, Cols: []int{1, 2, 3}, Vals: []float64{1, 1, 1}}}}
	if _, _, err := ReplayChange(eng, old.rows, change, core.Options{}); err == nil || !strings.Contains(err.Error(), "not clonable") {
		t.Fatalf("ReplayChange on a dual engine: %v", err)
	}
}
