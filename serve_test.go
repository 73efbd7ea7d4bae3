package foces_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"foces"
	"foces/internal/collector"
	"foces/internal/oracle"
)

// serveTestWindows precomputes per-window cumulative per-switch counter
// snapshots from the simulated data plane, so the polled and streaming
// arms below replay byte-for-byte identical inputs. Events are baked
// into the data: an attack skews every window from attackAt on, and
// resetSw's cumulative counters restart at resetAt.
func serveTestWindows(t testing.TB, gen *foces.System, windows, attackAt, resetAt int, resetSw foces.SwitchID, seed int64) []map[foces.SwitchID]map[int]uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rules := gen.FCM().Rules
	freshSwitch := func(sw foces.SwitchID) map[int]uint64 {
		m := make(map[int]uint64)
		for _, r := range rules {
			if r.Switch == sw {
				m[r.ID] = 0
			}
		}
		return m
	}
	cum := make(map[foces.SwitchID]map[int]uint64)
	for _, sw := range gen.Topology().Switches() {
		cum[sw.ID] = freshSwitch(sw.ID)
	}
	seq := make([]map[foces.SwitchID]map[int]uint64, windows)
	for w := 0; w < windows; w++ {
		if w == attackAt {
			if _, err := gen.InjectRandomAttack(rng, foces.AttackPortSwap); err != nil {
				t.Fatal(err)
			}
		}
		if w == resetAt {
			cum[resetSw] = freshSwitch(resetSw) // reboot: counters restart
		}
		y, err := gen.ObserveCounters(rng, 400)
		if err != nil {
			t.Fatal(err)
		}
		for rid, v := range y {
			if v > 0 {
				cum[rules[rid].Switch][rid] += uint64(v + 0.5)
			}
		}
		snap := make(map[foces.SwitchID]map[int]uint64, len(cum))
		for sw, counters := range cum {
			c := make(map[int]uint64, len(counters))
			for rid, v := range counters {
				c[rid] = v
			}
			snap[sw] = c
		}
		seq[w] = snap
	}
	return seq
}

func sortedSwitchIDs(sys *foces.System) []foces.SwitchID {
	ids := make([]foces.SwitchID, 0, len(sys.Topology().Switches()))
	for _, sw := range sys.Topology().Switches() {
		ids = append(ids, sw.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// gobReport canonicalizes a Report for byte comparison: timings are the
// only nondeterministic field, and gob (unlike JSON) round-trips the
// +Inf anomaly indices a zero-median window produces.
func gobReport(t *testing.T, rep foces.Report) []byte {
	t.Helper()
	rep.Timings = foces.RunTimings{}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func nextStreamReport(t *testing.T, ch <-chan foces.StreamReport) foces.StreamReport {
	t.Helper()
	select {
	case sr, ok := <-ch:
		if !ok {
			t.Fatal("report channel closed early")
		}
		return sr
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a stream report")
	}
	panic("unreachable")
}

func modifyFirstRule(t *testing.T, sys *foces.System) {
	t.Helper()
	r := sys.Controller().Rules()[0]
	if _, err := sys.ModifyRule(r.ID, r.Priority+1, r.Match, r.Action); err != nil {
		t.Fatal(err)
	}
}

// TestServeMatchesPolledRun is the equivalence gate at the API layer:
// the same snapshot sequence — spanning an attack, a silent switch, a
// counter reset and a rule-churn epoch bump — must yield byte-identical
// reports whether replayed through the legacy poll-then-Run loop or
// pushed through WindowAssembler + Serve.
func TestServeMatchesPolledRun(t *testing.T) {
	const (
		windows  = 10
		silentAt = 3
		attackAt = 5
		resetAt  = 6
		churnAt  = 7
	)
	gen := newSystem(t, "fattree4", foces.PairExact)
	switches := sortedSwitchIDs(gen)
	silent := switches[len(switches)/2]
	resetSw := switches[len(switches)/3]
	seq := serveTestWindows(t, gen, windows, attackAt, resetAt, resetSw, 11)

	// Polled arm: DeltaTracker + System.Run, mirroring RobustCollector's
	// merge (ascending switches; resets and unprimed switches go
	// missing; straddling windows dated by their oldest baseline epoch).
	sysP := newSystem(t, "fattree4", foces.PairExact)
	tracker := collector.NewDeltaTracker()
	tracker.SetEpoch(sysP.Epoch())
	var want [][]byte
	for w := 0; w < windows; w++ {
		if w == churnAt {
			modifyFirstRule(t, sysP)
			tracker.SetEpoch(sysP.Epoch())
		}
		deltas := make(map[int]uint64)
		var missing []foces.SwitchID
		epoch := sysP.Epoch()
		for _, sw := range switches {
			if w == silentAt && sw == silent {
				tracker.Forget(sw)
				missing = append(missing, sw)
				continue
			}
			delta, reset, primed, from, straddles := tracker.AdvanceEpoch(sw, seq[w][sw])
			if reset || !primed {
				missing = append(missing, sw)
				continue
			}
			if straddles && from < epoch {
				epoch = from
			}
			for rid, v := range delta {
				deltas[rid] = v
			}
		}
		if len(deltas) == 0 {
			continue // priming window: nothing to detect on
		}
		rep, err := sysP.Run(foces.Observation{Counters: deltas, RunOptions: foces.RunOptions{Missing: missing, Epoch: epoch}})
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		want = append(want, gobReport(t, rep))
	}

	// Streaming arm: identical snapshots pushed through the assembler,
	// verdicts consumed from Serve. Lock-step (one report read per
	// window) so the churn epoch bump lands between the same windows.
	sysS := newSystem(t, "fattree4", foces.PairExact)
	asm := collector.NewWindowAssembler(switches, collector.StreamConfig{WindowBuffer: windows + 2})
	asm.SetEpoch(sysS.Epoch())
	reports, err := sysS.Serve(context.Background(), foces.StreamConfig{Windows: asm.Windows()})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	for w := 0; w < windows; w++ {
		if w == churnAt {
			modifyFirstRule(t, sysS)
			asm.SetEpoch(sysS.Epoch())
		}
		for _, sw := range switches {
			if w == silentAt && sw == silent {
				asm.Forget(sw)
				asm.MarkMissing(sw)
				continue
			}
			counters := make(map[int]uint64, len(seq[w][sw]))
			for rid, v := range seq[w][sw] {
				counters[rid] = v
			}
			if err := asm.Push(collector.Update{Switch: sw, Counters: counters, At: time.Now()}); err != nil {
				t.Fatalf("window %d switch %d: %v", w, sw, err)
			}
		}
		if w == 0 {
			continue // priming window is skipped by Serve
		}
		sr := nextStreamReport(t, reports)
		if sr.Err != nil {
			t.Fatalf("window %d: %v", w, sr.Err)
		}
		got = append(got, gobReport(t, sr.Report))
	}
	asm.Close()
	if _, open := <-reports; open {
		t.Fatal("report channel still open after assembler close")
	}

	if len(got) != len(want) {
		t.Fatalf("streamed %d reports, polled %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("report %d diverged between the polled and streamed paths", i)
		}
	}
}

// serveBacklog queues every window of seq on an assembler before Serve
// starts, then returns the reports Serve streams for them.
func serveBacklog(t *testing.T, sys *foces.System, switches []foces.SwitchID, seq []map[foces.SwitchID]map[int]uint64) []foces.StreamReport {
	t.Helper()
	asm := collector.NewWindowAssembler(switches, collector.StreamConfig{WindowBuffer: len(seq) + 1})
	for w := range seq {
		for _, sw := range switches {
			counters := make(map[int]uint64, len(seq[w][sw]))
			for rid, v := range seq[w][sw] {
				counters[rid] = v
			}
			if err := asm.Push(collector.Update{Switch: sw, Counters: counters}); err != nil {
				t.Fatal(err)
			}
		}
	}
	asm.Close()
	reports, err := sys.Serve(context.Background(), foces.StreamConfig{Windows: asm.Windows()})
	if err != nil {
		t.Fatal(err)
	}
	var got []foces.StreamReport
	for sr := range reports {
		if sr.Err != nil {
			t.Fatal(sr.Err)
		}
		got = append(got, sr)
	}
	if len(got) != len(seq)-1 {
		t.Fatalf("got %d reports, want %d (priming window skipped)", len(got), len(seq)-1)
	}
	return got
}

// TestServeDrainsBacklogInOrder: windows queued before Serve starts are
// each detected alone, in window order — every report equals Run of the
// same observation on a twin system.
func TestServeDrainsBacklogInOrder(t *testing.T) {
	const windows = 8
	gen := newSystem(t, "fattree4", foces.PairExact)
	switches := sortedSwitchIDs(gen)
	seq := serveTestWindows(t, gen, windows, -1, -1, 0, 13)

	sys := newSystem(t, "fattree4", foces.PairExact)
	twin := newSystem(t, "fattree4", foces.PairExact)
	got := serveBacklog(t, sys, switches, seq)
	for i, sr := range got {
		if i > 0 && sr.Window <= got[i-1].Window {
			t.Fatalf("reports out of window order: %d after %d", sr.Window, got[i-1].Window)
		}
		if sr.Batched != 1 {
			t.Fatalf("window %d: Batched = %d, want 1", sr.Window, sr.Batched)
		}
		// Report i covers snapshot i+1 minus snapshot i on every switch.
		deltas := make(map[int]uint64)
		for _, sw := range switches {
			for rid, v := range seq[i+1][sw] {
				deltas[rid] = v - seq[i][sw][rid]
			}
		}
		want, err := twin.Run(foces.Observation{Counters: deltas, RunOptions: foces.RunOptions{Epoch: twin.Epoch()}})
		if err != nil {
			t.Fatal(err)
		}
		rep := sr.Report
		rep.Timings, want.Timings = foces.RunTimings{}, foces.RunTimings{}
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("window %d: streamed report diverged from Run:\n got %+v\nwant %+v", sr.Window, rep, want)
		}
	}
}

// TestServeRecordsRunsInWindowOrder: a drained backlog grows the
// recent-verdict ring by one clean event per window, in window order.
func TestServeRecordsRunsInWindowOrder(t *testing.T) {
	const windows = 6
	gen := newSystem(t, "fattree4", foces.PairExact)
	switches := sortedSwitchIDs(gen)
	seq := serveTestWindows(t, gen, windows, -1, -1, 0, 37)

	sys := newSystem(t, "fattree4", foces.PairExact)
	sys.EnableTelemetry(foces.NewTelemetryRegistry())
	before := len(sys.RecentRuns())
	got := serveBacklog(t, sys, switches, seq)
	events := sys.RecentRuns()
	if len(events) != before+len(got) {
		t.Fatalf("recent ring grew by %d, want %d", len(events)-before, len(got))
	}
	for i, sr := range got {
		ev := events[before+i]
		if ev.Path != foces.PathClean {
			t.Fatalf("window %d recorded path %q", sr.Window, ev.Path)
		}
		if !reflect.DeepEqual(ev, sr.Report.Event()) {
			t.Fatalf("recent ring entry %d = %+v, want window %d's %+v", i, ev, sr.Window, sr.Report.Event())
		}
	}
}

// TestServeSamplerFeedback closes the loop end to end: clean verdicts
// flowing out of Serve feed the adaptive sampler, which backs stable
// switches off every-window sampling until the configured fraction cap.
func TestServeSamplerFeedback(t *testing.T) {
	const windows = 12
	gen := newSystem(t, "fattree4", foces.PairExact)
	switches := sortedSwitchIDs(gen)
	seq := serveTestWindows(t, gen, windows, -1, -1, 0, 17)

	sys := newSystem(t, "fattree4", foces.PairExact)
	sampler := foces.NewAdaptiveSampler(switches, foces.SamplerConfig{
		StableAfter:      1,
		MaxInterval:      4,
		MaxBackedOffFrac: 0.5,
	})
	asm := collector.NewWindowAssembler(switches, collector.StreamConfig{Sampler: sampler, WindowBuffer: windows + 1})
	reports, err := sys.Serve(context.Background(), foces.StreamConfig{
		Windows: asm.Windows(),
		Sampler: sampler,
	})
	if err != nil {
		t.Fatal(err)
	}
	minDue := len(switches)
	for w := 0; w < windows; w++ {
		due := asm.Due()
		if len(due) < minDue {
			minDue = len(due)
		}
		for _, sw := range due {
			counters := make(map[int]uint64, len(seq[w][sw]))
			for rid, v := range seq[w][sw] {
				counters[rid] = v
			}
			if err := asm.Push(collector.Update{Switch: sw, Counters: counters}); err != nil {
				t.Fatal(err)
			}
		}
		if w == 0 {
			continue
		}
		sr := nextStreamReport(t, reports)
		if sr.Err != nil {
			t.Fatalf("window %d: %v", w, sr.Err)
		}
		if sr.Report.Anomalous {
			t.Fatalf("window %d: clean traffic flagged anomalous", w)
		}
	}
	cap := len(switches) / 2
	if st := sampler.Stats(); st.BackedOff != cap {
		t.Fatalf("backed off %d switches, want the cap %d of %d", st.BackedOff, cap, len(switches))
	}
	if minDue >= len(switches) {
		t.Fatal("due set never shrank below the full switch set")
	}
}

// TestServeMissingAndLaggedWindow is TestRunMissingAndLagged through the
// streaming path: one window in which a switch goes silent AND a rule on
// a reporting switch is rewritten mid-window. windowObservation hands
// Run both conditions; both must be masked, and the verdict must be the
// cold oracle's.
func TestServeMissingAndLaggedWindow(t *testing.T) {
	const windows = 3
	gen := newSystem(t, "fattree4", foces.PairExact)
	switches := sortedSwitchIDs(gen)
	seq := serveTestWindows(t, gen, windows, -1, -1, 0, 19)

	sys := newSystem(t, "fattree4", foces.PairExact)
	asm := collector.NewWindowAssembler(switches, collector.StreamConfig{WindowBuffer: windows + 2})
	asm.SetEpoch(sys.Epoch())
	reports, err := sys.Serve(context.Background(), foces.StreamConfig{Windows: asm.Windows()})
	if err != nil {
		t.Fatal(err)
	}
	defer asm.Close()
	push := func(w int, silent foces.SwitchID) {
		for _, sw := range switches {
			if sw == silent {
				asm.Forget(sw)
				asm.MarkMissing(sw)
				continue
			}
			counters := make(map[int]uint64, len(seq[w][sw]))
			for rid, v := range seq[w][sw] {
				counters[rid] = v
			}
			if err := asm.Push(collector.Update{Switch: sw, Counters: counters, At: time.Now()}); err != nil {
				t.Fatalf("window %d switch %d: %v", w, sw, err)
			}
		}
	}
	push(0, -1) // priming window, skipped by Serve
	push(1, -1)
	if sr := nextStreamReport(t, reports); sr.Err != nil || sr.Report.Path != foces.PathClean || sr.Report.Anomalous {
		t.Fatalf("steady window: %+v", sr)
	}
	// The generator keeps forwarding under the old rules, so window 2's
	// counters are old-generation on every row the rewrite affects.
	from := sys.Epoch()
	victim, silent := dropFirstHop(t, sys)
	asm.SetEpoch(sys.Epoch())
	push(2, silent)
	sr := nextStreamReport(t, reports)
	if sr.Err != nil {
		t.Fatal(sr.Err)
	}
	rep := sr.Report
	if rep.Path != foces.PathMissing || rep.EpochLag != 1 || !slices.Equal(rep.Missing, []foces.SwitchID{silent}) {
		t.Fatalf("path=%q epochLag=%d missing=%v, want %q, 1 and [%d]", rep.Path, rep.EpochLag, rep.Missing, foces.PathMissing, silent)
	}
	if !slices.Equal(rep.MaskedRows, sys.AffectedSince(from)) || !slices.Contains(rep.MaskedRows, victim.ID) {
		t.Fatalf("MaskedRows = %v, want AffectedSince = %v containing rule %d", rep.MaskedRows, sys.AffectedSince(from), victim.ID)
	}
	if rep.Anomalous {
		t.Fatalf("clean traffic flagged: index %v, suspects %v", rep.Index, rep.Suspects)
	}
	f := sys.FCM()
	y := make([]float64, f.NumRules())
	for _, sw := range switches {
		if sw == silent {
			continue
		}
		for rid, v := range seq[2][sw] {
			y[rid] = float64(v - seq[1][sw][rid])
		}
	}
	masked := append(oracle.SwitchRows(f, []foces.SwitchID{silent}), rep.MaskedRows...)
	checkAgainstOracle(t, sys, rep, y, masked)
}

// TestServeCancelClosesReports checks that cancelling the context shuts
// the report stream down promptly even with no windows arriving.
func TestServeCancelClosesReports(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	asm := foces.NewWindowAssembler(sortedSwitchIDs(sys), foces.AssemblerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	reports, err := sys.Serve(ctx, foces.StreamConfig{Windows: asm.Windows()})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case _, open := <-reports:
		if open {
			t.Fatal("report delivered after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("report channel not closed after cancellation")
	}
	asm.Close()
}

// TestServeRequiresWindows pins the config validation.
func TestServeRequiresWindows(t *testing.T) {
	sys := newSystem(t, "fattree4", foces.PairExact)
	if _, err := sys.Serve(context.Background(), foces.StreamConfig{}); err == nil {
		t.Fatal("Serve accepted a nil window stream")
	}
}
