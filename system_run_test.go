package foces_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"foces"
	"foces/internal/oracle"
	"foces/internal/telemetry"
)

// The Run suite pins the unified entry point: clean and reconciled
// windows to the deprecated wrappers that delegate through Run, and
// every masked window to the cold oracle on the row-selected system.

func sameResult(t *testing.T, name string, a, b foces.Result) {
	t.Helper()
	if a.Anomalous != b.Anomalous || a.Index != b.Index || a.ErrMax != b.ErrMax || a.ErrMed != b.ErrMed {
		t.Fatalf("%s diverged: (%v, %v) vs (%v, %v)", name, a.Anomalous, a.Index, b.Anomalous, b.Index)
	}
	if !reflect.DeepEqual(a.Delta, b.Delta) {
		t.Fatalf("%s delta diverged", name)
	}
}

func sameSliced(t *testing.T, name string, a, b foces.SlicedOutcome) {
	t.Helper()
	if a.Anomalous != b.Anomalous || !reflect.DeepEqual(a.Suspects, b.Suspects) {
		t.Fatalf("%s diverged: suspects %v vs %v", name, a.Suspects, b.Suspects)
	}
	if len(a.PerSwitch) != len(b.PerSwitch) {
		t.Fatalf("%s per-switch count diverged: %d vs %d", name, len(a.PerSwitch), len(b.PerSwitch))
	}
	for i := range a.PerSwitch {
		if a.PerSwitch[i].Switch != b.PerSwitch[i].Switch || a.PerSwitch[i].Result.Index != b.PerSwitch[i].Result.Index {
			t.Fatalf("%s slice %d diverged", name, i)
		}
	}
}

func TestRunCleanParity(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	rng := rand.New(rand.NewSource(11))
	y, err := sys.ObserveCounters(rng, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(foces.Observation{Vector: y})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Path != foces.PathClean || rep.Full == nil || rep.Sliced == nil {
		t.Fatalf("clean dispatch wrong: path=%q full=%v sliced=%v", rep.Path, rep.Full != nil, rep.Sliced != nil)
	}
	legacyFull, err := sys.Detect(y, foces.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	legacySliced, err := sys.DetectSliced(y, foces.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "clean full", *rep.Full, legacyFull)
	sameSliced(t, "clean sliced", *rep.Sliced, legacySliced)
	if rep.Index != legacyFull.Index {
		t.Fatalf("Report.Index %v != full index %v", rep.Index, legacyFull.Index)
	}
	if rep.SlicedIndex != legacySliced.MaxIndex() {
		t.Fatalf("Report.SlicedIndex %v != sliced max %v", rep.SlicedIndex, legacySliced.MaxIndex())
	}
	if rep.Timings.Total <= 0 || rep.Timings.Total < rep.Timings.Full || rep.Timings.Total < rep.Timings.Sliced {
		t.Fatalf("implausible timings: %+v", rep.Timings)
	}
}

func TestRunMissingParity(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	rng := rand.New(rand.NewSource(12))
	y, err := sys.ObserveCounters(rng, 1000)
	if err != nil {
		t.Fatal(err)
	}
	missing := []foces.SwitchID{sys.Slices()[0].Switch}
	masked := oracle.SwitchRows(sys.FCM(), missing)
	// A dense Vector works like Counters: whatever the missing switch's
	// entries hold, they are masked.
	for _, rid := range masked {
		y[rid] = 1e9
	}
	rep, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Missing: missing}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Path != foces.PathMissing || rep.EpochLag != 0 || len(rep.MaskedRows) != 0 || !reflect.DeepEqual(rep.Missing, missing) {
		t.Fatalf("missing window mislabelled: path=%q lag=%d maskedRows=%v missing=%v", rep.Path, rep.EpochLag, rep.MaskedRows, rep.Missing)
	}
	if rep.Partial != nil {
		t.Fatal("Report.Partial is set; missing windows report through Full")
	}
	if rep.Anomalous {
		t.Fatalf("clean window with a switch missing was flagged: index %v, suspects %v", rep.Index, rep.Suspects)
	}
	checkAgainstOracle(t, sys, rep, y, masked)
	for _, sr := range rep.Sliced.PerSwitch {
		if sr.Switch == missing[0] {
			t.Fatalf("slice of missing switch %d was checked", sr.Switch)
		}
	}
	// An empty Missing is no Missing: same clean window as nil.
	rep, err = sys.Run(foces.Observation{Counters: sys.Network().CollectCounters(), RunOptions: foces.RunOptions{Missing: []foces.SwitchID{}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Path != foces.PathClean || rep.Missing != nil {
		t.Fatalf("empty Missing took path %q (missing=%v)", rep.Path, rep.Missing)
	}
	// Every switch missing: a blind window is an error, never a clean
	// verdict.
	var all []foces.SwitchID
	for _, sw := range sys.Topology().Switches() {
		all = append(all, sw.ID)
	}
	if _, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Missing: all}}); err == nil || !strings.Contains(err.Error(), "nothing to check") {
		t.Fatalf("all switches missing: error = %v, want \"nothing to check\"", err)
	}
}

func TestRunReconciledParity(t *testing.T) {
	sys := newLinearSystem(t)
	rng := rand.New(rand.NewSource(13))
	yOld, err := sys.ObserveCounters(rng, 500)
	if err != nil {
		t.Fatal(err)
	}
	from := sys.Epoch()
	var victim foces.Rule
	for _, fl := range sys.FCM().Flows {
		if len(fl.RuleIDs) >= 3 {
			victim = sys.FCM().Rules[fl.RuleIDs[0]]
			break
		}
	}
	if _, err := sys.RemoveRule(victim.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.AddRule(victim.Switch, victim.Priority+1, victim.Match, foces.Action{Type: foces.ActionDrop}); err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(foces.Observation{Vector: yOld, RunOptions: foces.RunOptions{Epoch: from}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Path != foces.PathReconciled || rep.Sliced == nil || rep.Full == nil {
		t.Fatalf("reconciled dispatch wrong: path=%q", rep.Path)
	}
	if rep.EpochLag != sys.Epoch()-from {
		t.Fatalf("EpochLag = %d, want %d", rep.EpochLag, sys.Epoch()-from)
	}
	if !reflect.DeepEqual(rep.MaskedRows, sys.AffectedSince(from)) {
		t.Fatal("MaskedRows diverged from AffectedSince")
	}
	legacy, err := sys.DetectReconciled(yOld, from)
	if err != nil {
		t.Fatal(err)
	}
	sameSliced(t, "reconciled sliced", *rep.Sliced, legacy)
	if rep.Anomalous {
		t.Fatalf("reconciled window flagged: %v", rep.Suspects)
	}
}

func TestRunModeSelection(t *testing.T) {
	sys := newLinearSystem(t)
	rng := rand.New(rand.NewSource(14))
	y, err := sys.ObserveCounters(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Mode: foces.ModeFull}})
	if err != nil {
		t.Fatal(err)
	}
	if full.Full == nil || full.Sliced != nil || full.Timings.Sliced != 0 {
		t.Fatal("ModeFull ran the sliced engine")
	}
	sliced, err := sys.Run(foces.Observation{Vector: y, RunOptions: foces.RunOptions{Mode: foces.ModeSliced}})
	if err != nil {
		t.Fatal(err)
	}
	if sliced.Sliced == nil || sliced.Full != nil || sliced.Timings.Full != 0 {
		t.Fatal("ModeSliced ran the full engine")
	}
	for m, want := range map[foces.Mode]string{foces.ModeAuto: "auto", foces.ModeFull: "full", foces.ModeSliced: "sliced"} {
		if m.String() != want {
			t.Fatalf("Mode(%d).String() = %q", int(m), m.String())
		}
	}
}

func TestRunValidation(t *testing.T) {
	sys := newLinearSystem(t)
	rng := rand.New(rand.NewSource(15))
	y, err := sys.ObserveCounters(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		obs  foces.Observation
		want string
	}{
		{"no counters", foces.Observation{}, "no counters"},
		{"both sources", foces.Observation{Vector: y, Counters: map[int]uint64{}}, "both"},
		{"future epoch", foces.Observation{Vector: y, RunOptions: foces.RunOptions{Epoch: sys.Epoch() + 1}}, "ahead"},
		{"stale vector", foces.Observation{Vector: y[:len(y)-1]}, "entries"},
		{"out-of-space counter", foces.Observation{Counters: map[int]uint64{sys.FCM().NumRules(): 1}}, "rule space"},
	}
	for _, tc := range cases {
		if _, err := sys.Run(tc.obs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestRunTelemetry checks that EnableTelemetry arms both the system
// metric families and the recent-verdict ring, and that Run feeds them.
func TestRunTelemetry(t *testing.T) {
	sys := newLinearSystem(t)
	reg := telemetry.New()
	sys.EnableTelemetry(reg)
	if got := sys.RecentRuns(); len(got) != 0 {
		t.Fatalf("ring pre-populated: %d events", len(got))
	}
	rng := rand.New(rand.NewSource(16))
	y, err := sys.ObserveCounters(rng, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sys.Run(foces.Observation{Vector: y}); err != nil {
			t.Fatal(err)
		}
	}
	events := sys.RecentRuns()
	if len(events) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(events))
	}
	for _, ev := range events {
		if ev.Path != foces.PathClean || ev.ElapsedNS <= 0 {
			t.Fatalf("bad event: %+v", ev)
		}
		if math.IsInf(ev.Index, 0) || math.IsInf(ev.SlicedIndex, 0) {
			t.Fatalf("event carries non-encodable index: %+v", ev)
		}
	}
	fams := reg.Gather()
	seen := map[string]bool{}
	for _, f := range fams {
		seen[f.Name] = true
	}
	for _, want := range []string{
		"foces_system_run_seconds",
		"foces_system_runs_total",
		"foces_detector_detect_seconds",
		"foces_churn_epoch",
	} {
		if !seen[want] {
			t.Fatalf("family %s not registered", want)
		}
	}
	var runs uint64
	for _, f := range fams {
		if f.Name != "foces_system_runs_total" {
			continue
		}
		for _, s := range f.Samples {
			runs += uint64(s.Value)
		}
	}
	if runs != 3 {
		t.Fatalf("foces_system_runs_total = %d, want 3", runs)
	}
}

// checkAgainstOracle compares a report's engine outcomes with the cold
// oracle on the row-selected system: same verdicts, indices within
// 1e-9 relative, the same slices checked and the same suspects.
func checkAgainstOracle(t *testing.T, sys *foces.System, rep foces.Report, y []float64, masked []int) {
	t.Helper()
	f := sys.FCM()
	want, _, err := oracle.Detect(f.H, y, masked, foces.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full == nil || rep.Full.Anomalous != want.Anomalous || !oracle.SameIndex(rep.Full.Index, want.Index) {
		t.Fatalf("full engine diverged from the oracle: got %+v, want (%v, %v)", rep.Full, want.Anomalous, want.Index)
	}
	if rep.Index != rep.Full.Index {
		t.Fatalf("Report.Index %v != full index %v", rep.Index, rep.Full.Index)
	}
	wantSliced, err := oracle.DetectSliced(f, sys.Slices(), y, masked, foces.DetectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sliced == nil || rep.Sliced.Anomalous != wantSliced.Anomalous || !reflect.DeepEqual(rep.Sliced.Suspects, wantSliced.Suspects) {
		t.Fatalf("sliced engine diverged from the oracle: got %+v, want suspects %v", rep.Sliced, wantSliced.Suspects)
	}
	if len(rep.Sliced.PerSwitch) != len(wantSliced.PerSwitch) {
		t.Fatalf("sliced engine checked %d slices, oracle %d", len(rep.Sliced.PerSwitch), len(wantSliced.PerSwitch))
	}
	for i, got := range rep.Sliced.PerSwitch {
		w := wantSliced.PerSwitch[i]
		if got.Switch != w.Switch || got.Result.Anomalous != w.Result.Anomalous || !oracle.SameIndex(got.Result.Index, w.Result.Index) {
			t.Fatalf("slice %d diverged from the oracle: got (%d, %v), want (%d, %v)", i, got.Switch, got.Result.Index, w.Switch, w.Result.Index)
		}
	}
}

// dropFirstHop picks a multi-hop flow, rewrites its first-hop rule to
// drop (one churn epoch whose affected rows sit on reporting switches)
// and returns that rule plus a switch the flow never crosses.
func dropFirstHop(t *testing.T, sys *foces.System) (victim foces.Rule, offPath foces.SwitchID) {
	t.Helper()
	f := sys.FCM()
	onPath := map[foces.SwitchID]bool{}
	for _, fl := range f.Flows {
		if len(fl.RuleIDs) >= 3 {
			victim = f.Rules[fl.RuleIDs[0]]
			for _, rid := range fl.RuleIDs {
				onPath[f.Rules[rid].Switch] = true
			}
			break
		}
	}
	if len(onPath) == 0 {
		t.Fatal("no multi-hop flow")
	}
	offPath = -1
	for _, sl := range sys.Slices() {
		if !onPath[sl.Switch] {
			offPath = sl.Switch
			break
		}
	}
	if offPath < 0 {
		t.Fatal("every switch is on the victim flow's path")
	}
	if _, err := sys.ModifyRule(victim.ID, victim.Priority, victim.Match, foces.Action{Type: foces.ActionDrop}); err != nil {
		t.Fatal(err)
	}
	return victim, offPath
}

// TestRunMissingAndLagged is the regression test for the dispatch hole
// the three-arm switch had: a window with a missing switch AND an epoch
// lag took the missing arm, skipped reconciliation and read the churned
// rows against the new baseline. Both conditions are row masks of one
// system, so both must apply.
func TestRunMissingAndLagged(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	yOld, err := sys.ObserveCounters(rand.New(rand.NewSource(21)), 1000)
	if err != nil {
		t.Fatal(err)
	}
	from := sys.Epoch()
	victim, missing := dropFirstHop(t, sys)
	f := sys.FCM()
	counters := make(map[int]uint64)
	for rid, v := range yOld {
		if f.Rules[rid].Switch != missing && v > 0 {
			counters[rid] = uint64(v + 0.5)
		}
	}
	rep, err := sys.Run(foces.Observation{Counters: counters, RunOptions: foces.RunOptions{Missing: []foces.SwitchID{missing}, Epoch: from}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Path != foces.PathMissing || rep.EpochLag != 1 {
		t.Fatalf("path=%q epochLag=%d, want %q and 1", rep.Path, rep.EpochLag, foces.PathMissing)
	}
	if !reflect.DeepEqual(rep.MaskedRows, sys.AffectedSince(from)) || !slices.Contains(rep.MaskedRows, victim.ID) {
		t.Fatalf("MaskedRows = %v, want AffectedSince = %v containing rule %d", rep.MaskedRows, sys.AffectedSince(from), victim.ID)
	}
	if rep.Anomalous {
		t.Fatalf("a clean window straddling churn with a switch missing was flagged: index %v, suspects %v", rep.Index, rep.Suspects)
	}
	masked := append(oracle.SwitchRows(f, []foces.SwitchID{missing}), rep.MaskedRows...)
	checkAgainstOracle(t, sys, rep, f.CounterVector(counters), masked)
}
