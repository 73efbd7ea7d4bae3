package collector

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"foces/internal/openflow"
	"foces/internal/telemetry"
	"foces/internal/topo"
)

func push(t *testing.T, a *WindowAssembler, sw topo.SwitchID, counters map[int]uint64) {
	t.Helper()
	if err := a.Push(Update{Switch: sw, Counters: counters}); err != nil {
		t.Fatal(err)
	}
}

func nextWindow(t *testing.T, a *WindowAssembler) Window {
	t.Helper()
	select {
	case w, ok := <-a.Windows():
		if !ok {
			t.Fatal("window channel closed")
		}
		return w
	case <-time.After(time.Second):
		t.Fatal("no window completed")
		return Window{}
	}
}

func TestAssemblerWindowMatchesPolledDelta(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1, 2}, StreamConfig{})

	// Window 1: primes both baselines — all missing, no deltas.
	push(t, a, 1, map[int]uint64{0: 10, 1: 20})
	push(t, a, 2, map[int]uint64{2: 5})
	w := nextWindow(t, a)
	if w.Seq != 1 || len(w.Deltas) != 0 {
		t.Fatalf("priming window: seq=%d deltas=%v", w.Seq, w.Deltas)
	}
	if !reflect.DeepEqual(w.Missing, []topo.SwitchID{1, 2}) {
		t.Fatalf("priming window missing = %v", w.Missing)
	}

	// Window 2: one snapshot each — deltas are cumulative differences.
	push(t, a, 1, map[int]uint64{0: 15, 1: 26})
	push(t, a, 2, map[int]uint64{2: 9})
	w = nextWindow(t, a)
	if w.Seq != 2 {
		t.Fatalf("seq = %d, want 2", w.Seq)
	}
	want := map[int]uint64{0: 5, 1: 6, 2: 4}
	if !reflect.DeepEqual(w.Deltas, want) {
		t.Fatalf("deltas = %v, want %v", w.Deltas, want)
	}
	if len(w.Missing) != 0 {
		t.Fatalf("missing = %v, want none", w.Missing)
	}
	if w.Contributed[1] != 11 || w.Contributed[2] != 4 {
		t.Fatalf("contributed = %v", w.Contributed)
	}
	st := a.Stats()
	if st.Windows != 2 || st.Pushes != 4 || st.Updates != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAssemblerSubDeltasTelescope(t *testing.T) {
	// Several queued snapshots consumed into one window must sum to
	// exactly the delta a single poll at the final snapshot would see.
	a := NewWindowAssembler([]topo.SwitchID{1, 2}, StreamConfig{})
	push(t, a, 1, map[int]uint64{0: 100})
	push(t, a, 2, map[int]uint64{1: 50})
	nextWindow(t, a) // prime

	// Switch 1 pushes three times while switch 2 lags.
	push(t, a, 1, map[int]uint64{0: 110})
	push(t, a, 1, map[int]uint64{0: 125})
	push(t, a, 1, map[int]uint64{0: 140})
	push(t, a, 2, map[int]uint64{1: 58})
	w := nextWindow(t, a)
	if w.Deltas[0] != 40 || w.Deltas[1] != 8 {
		t.Fatalf("deltas = %v, want rule0=40 rule1=8", w.Deltas)
	}
}

func TestAssemblerCoalesceAtCapacity(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1, 2}, StreamConfig{QueueCapacity: 2})
	push(t, a, 1, map[int]uint64{0: 10})
	push(t, a, 2, map[int]uint64{1: 5})
	nextWindow(t, a) // prime

	// Three pushes into a capacity-2 queue: the third replaces the
	// newest queued snapshot. Counters are cumulative, so the final
	// delta still covers all the traffic.
	push(t, a, 1, map[int]uint64{0: 20})
	push(t, a, 1, map[int]uint64{0: 30})
	push(t, a, 1, map[int]uint64{0: 45})
	st := a.Stats()
	if st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", st.Coalesced)
	}
	if st.QueueDepth != 2 {
		t.Fatalf("queue depth = %d, want 2", st.QueueDepth)
	}
	push(t, a, 2, map[int]uint64{1: 6})
	w := nextWindow(t, a)
	if w.Deltas[0] != 35 || w.Deltas[1] != 1 {
		t.Fatalf("deltas = %v, want rule0=35 rule1=1", w.Deltas)
	}
}

func TestAssemblerDropsOldestWindowWhenConsumerLags(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1}, StreamConfig{WindowBuffer: 1})
	for i := uint64(1); i <= 3; i++ {
		push(t, a, 1, map[int]uint64{0: 10 * i})
	}
	st := a.Stats()
	if st.Windows != 3 || st.DroppedWindows != 2 {
		t.Fatalf("stats = %+v, want 3 windows with 2 dropped", st)
	}
	// The survivor is the newest window.
	if w := nextWindow(t, a); w.Seq != 3 {
		t.Fatalf("buffered window seq = %d, want 3", w.Seq)
	}
}

func TestAssemblerForgetDropsQueuedSnapshots(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1, 2}, StreamConfig{})
	push(t, a, 1, map[int]uint64{0: 10})
	push(t, a, 2, map[int]uint64{1: 5})
	nextWindow(t, a) // prime

	// A queued pre-gap snapshot must not survive a Forget: consuming it
	// would re-prime early and let the next delta span the outage.
	push(t, a, 1, map[int]uint64{0: 20})
	a.Forget(1)
	if st := a.Stats(); st.DroppedUpdates != 1 || st.QueueDepth != 0 {
		t.Fatalf("stats after forget = %+v", st)
	}
	a.MarkMissing(1)
	push(t, a, 2, map[int]uint64{1: 8})
	w := nextWindow(t, a)
	if !reflect.DeepEqual(w.Missing, []topo.SwitchID{1}) || w.Deltas[1] != 3 {
		t.Fatalf("gap window = %+v", w)
	}

	// Post-gap snapshot only re-primes; the window after that is usable.
	push(t, a, 1, map[int]uint64{0: 50})
	push(t, a, 2, map[int]uint64{1: 9})
	w = nextWindow(t, a)
	if !reflect.DeepEqual(w.Missing, []topo.SwitchID{1}) {
		t.Fatalf("re-prime window missing = %v", w.Missing)
	}
	push(t, a, 1, map[int]uint64{0: 60})
	push(t, a, 2, map[int]uint64{1: 12})
	w = nextWindow(t, a)
	if w.Deltas[0] != 10 || len(w.Missing) != 0 {
		t.Fatalf("recovered window = %+v", w)
	}
}

func TestAssemblerCounterReset(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1}, StreamConfig{})
	push(t, a, 1, map[int]uint64{0: 100})
	nextWindow(t, a) // prime

	push(t, a, 1, map[int]uint64{0: 3}) // went backwards: reboot
	w := nextWindow(t, a)
	if !reflect.DeepEqual(w.Resets, []topo.SwitchID{1}) || !reflect.DeepEqual(w.Missing, []topo.SwitchID{1}) {
		t.Fatalf("reset window = %+v", w)
	}
	if len(w.Deltas) != 0 {
		t.Fatalf("reset window has deltas: %v", w.Deltas)
	}

	// The reset snapshot re-baselined: next window flows normally.
	push(t, a, 1, map[int]uint64{0: 10})
	w = nextWindow(t, a)
	if w.Deltas[0] != 7 || len(w.Missing) != 0 || len(w.Resets) != 0 {
		t.Fatalf("post-reset window = %+v", w)
	}
}

func TestAssemblerMultiWindowSpanBecomesProbe(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1, 2}, StreamConfig{})
	push(t, a, 1, map[int]uint64{0: 10})
	push(t, a, 2, map[int]uint64{1: 5})
	nextWindow(t, a) // prime

	// Switch 1 skips window 2 entirely (marked missing, baseline kept).
	a.MarkMissing(1)
	push(t, a, 2, map[int]uint64{1: 8})
	w := nextWindow(t, a)
	if !reflect.DeepEqual(w.Missing, []topo.SwitchID{1}) {
		t.Fatalf("skipped window = %+v", w)
	}

	// Its window-3 delta spans two windows: usable only as a rate
	// probe, never as a single-window equation row.
	push(t, a, 1, map[int]uint64{0: 30})
	push(t, a, 2, map[int]uint64{1: 12})
	w = nextWindow(t, a)
	if p, ok := w.Probes[1]; !ok || p.Total != 20 || p.Span != 2 {
		t.Fatalf("probe = %+v", w.Probes)
	}
	if !reflect.DeepEqual(w.Missing, []topo.SwitchID{1}) {
		t.Fatalf("probe window missing = %v", w.Missing)
	}
	if _, leaked := w.Deltas[0]; leaked {
		t.Fatalf("multi-window delta leaked into equation rows: %v", w.Deltas)
	}
	if _, contributed := w.Contributed[1]; contributed {
		t.Fatalf("probe counted as contribution: %v", w.Contributed)
	}

	// Baseline continuity: the window after the probe is single-span.
	push(t, a, 1, map[int]uint64{0: 36})
	push(t, a, 2, map[int]uint64{1: 13})
	w = nextWindow(t, a)
	if w.Deltas[0] != 6 || len(w.Missing) != 0 {
		t.Fatalf("post-probe window = %+v", w)
	}
}

func TestAssemblerEpochStraddle(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1}, StreamConfig{})
	a.SetEpoch(3)
	push(t, a, 1, map[int]uint64{0: 10})
	nextWindow(t, a) // prime under epoch 3

	a.SetEpoch(5) // rule update applied mid-window
	push(t, a, 1, map[int]uint64{0: 25})
	w := nextWindow(t, a)
	if w.Epoch != 5 {
		t.Fatalf("window epoch = %d, want 5", w.Epoch)
	}
	if from, ok := w.Straddled[1]; !ok || from != 3 {
		t.Fatalf("straddled = %v, want switch 1 from epoch 3", w.Straddled)
	}
	if w.Deltas[0] != 15 {
		t.Fatalf("deltas = %v", w.Deltas)
	}

	// Next window is entirely inside epoch 5: no straddle.
	push(t, a, 1, map[int]uint64{0: 30})
	w = nextWindow(t, a)
	if len(w.Straddled) != 0 {
		t.Fatalf("unexpected straddle: %v", w.Straddled)
	}
}

func TestAssemblerCloseFlushesPendingWindow(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1, 2}, StreamConfig{})
	push(t, a, 1, map[int]uint64{0: 10})
	push(t, a, 2, map[int]uint64{1: 5})
	nextWindow(t, a) // prime

	push(t, a, 1, map[int]uint64{0: 22}) // switch 2 still outstanding
	a.Close()
	w := nextWindow(t, a)
	if w.Deltas[0] != 12 || !reflect.DeepEqual(w.Missing, []topo.SwitchID{2}) {
		t.Fatalf("flushed window = %+v", w)
	}
	if _, ok := <-a.Windows(); ok {
		t.Fatal("channel not closed after Close")
	}
	if err := a.Push(Update{Switch: 1, Counters: map[int]uint64{0: 30}}); !errors.Is(err, ErrAssemblerClosed) {
		t.Fatalf("push after close = %v, want ErrAssemblerClosed", err)
	}
}

func TestAssemblerRejectsUnknownSwitch(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1}, StreamConfig{})
	if err := a.Push(Update{Switch: 9, Counters: map[int]uint64{0: 1}}); err == nil {
		t.Fatal("push from unknown switch accepted")
	}
}

func TestAssemblerDuplicateRuleLowestSwitchWins(t *testing.T) {
	a := NewWindowAssembler([]topo.SwitchID{1, 2}, StreamConfig{})
	push(t, a, 1, map[int]uint64{0: 10})
	push(t, a, 2, map[int]uint64{0: 100}) // same rule ID: shadowing
	nextWindow(t, a)

	push(t, a, 1, map[int]uint64{0: 13})
	push(t, a, 2, map[int]uint64{0: 107})
	w := nextWindow(t, a)
	if !reflect.DeepEqual(w.DuplicateRules, []int{0}) {
		t.Fatalf("duplicates = %v", w.DuplicateRules)
	}
	if w.Deltas[0] != 3 {
		t.Fatalf("delta = %v, want the lowest switch's value 3", w.Deltas)
	}
}

// TestAssemblerCountsResetsAndDuplicates: the assembler is where resets
// and counter shadowing are found, so it is where they are counted —
// in StreamStats and in the collector reset/duplicate families.
func TestAssemblerCountsResetsAndDuplicates(t *testing.T) {
	reg := telemetry.New()
	a := NewWindowAssembler([]topo.SwitchID{1, 2}, StreamConfig{})
	a.SetTelemetry(telemetry.NewStreamMetrics(reg))
	push(t, a, 1, map[int]uint64{0: 10, 1: 50})
	push(t, a, 2, map[int]uint64{0: 100, 2: 5}) // rule 0 shadowed
	nextWindow(t, a)                            // prime: no deltas, nothing counted

	push(t, a, 1, map[int]uint64{0: 13, 1: 60})
	push(t, a, 2, map[int]uint64{0: 107, 2: 9})
	nextWindow(t, a) // rule 0 reported twice

	push(t, a, 1, map[int]uint64{0: 14, 1: 2}) // rule 1 went backwards: reboot
	push(t, a, 2, map[int]uint64{0: 110, 2: 12})
	w := nextWindow(t, a)
	if !reflect.DeepEqual(w.Resets, []topo.SwitchID{1}) {
		t.Fatalf("resets = %v", w.Resets)
	}

	st := a.Stats()
	if st.Resets != 1 || st.DuplicateRules != 1 {
		t.Fatalf("stats resets=%d duplicateRules=%d, want 1 and 1", st.Resets, st.DuplicateRules)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := reg.WriteText(bw); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	for _, want := range []string{"foces_collector_resets_total 1\n", "foces_collector_duplicate_rules_total 1\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestPollSnapshotsHealthParity drives a switch through the full
// degrade → quarantine → probe → reinstate cycle and checks each
// round's SnapshotResult reports it: Failed while the switch is down,
// Reinstated with a snapshot once the probe and the poll succeed.
func TestPollSnapshotsHealthParity(t *testing.T) {
	boom := errors.New("switch unreachable")
	flaky := &scripted{flow: func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
		if call <= 6 { // rounds 1-2 exhaust 3 attempts each
			return nil, boom
		}
		return reply(map[int]uint64{1: 40}), nil
	}}
	steady := &scripted{flow: func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
		return reply(map[int]uint64{2: uint64(10 * call)}), nil
	}}
	rc := newTestCollector(map[topo.SwitchID]StatsClient{1: flaky, 2: steady},
		RobustConfig{Attempts: 3, QuarantineAfter: 2, ProbeEvery: 1})
	ctx := context.Background()

	// Round 1: flaky fails all attempts → Degraded, reported Failed.
	res, err := rc.PollSnapshots(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Failed, []topo.SwitchID{1}) || len(res.Skipped) != 0 {
		t.Fatalf("round 1 = %+v", res)
	}
	if res.Snapshots[2][2] != 10 {
		t.Fatalf("round 1 snapshots = %v", res.Snapshots)
	}
	if h := rc.Health()[1]; h != Degraded {
		t.Fatalf("round 1 health = %v, want degraded", h)
	}

	// Round 2: second failure → Quarantined.
	res, err = rc.PollSnapshots(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Failed, []topo.SwitchID{1}) {
		t.Fatalf("round 2 = %+v", res)
	}
	if h := rc.Health()[1]; h != Quarantined {
		t.Fatalf("round 2 health = %v, want quarantined", h)
	}

	// Round 3: probe succeeds (echo defaults to nil) and the poll now
	// answers → Reinstated with a snapshot.
	res, err = rc.PollSnapshots(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Reinstated, []topo.SwitchID{1}) {
		t.Fatalf("round 3 reinstated = %v", res.Reinstated)
	}
	if res.Snapshots[1][1] != 40 {
		t.Fatalf("round 3 snapshots = %v", res.Snapshots)
	}
	if h := rc.Health()[1]; h != Degraded {
		t.Fatalf("round 3 health = %v, want degraded (one clean period first)", h)
	}
	m := rc.Metrics()
	if m.Quarantines != 1 || m.Reinstatements != 1 || m.Probes != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestPollSnapshotsDueSubsetLeavesOthersUntouched(t *testing.T) {
	called := &scripted{}
	idle := &scripted{}
	rc := newTestCollector(map[topo.SwitchID]StatsClient{1: called, 2: idle}, RobustConfig{})
	res, err := rc.PollSnapshots(context.Background(), []topo.SwitchID{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Snapshots[1]; !ok {
		t.Fatalf("due switch not polled: %+v", res)
	}
	if _, ok := res.Snapshots[2]; ok || len(res.Failed) != 0 || len(res.Skipped) != 0 {
		t.Fatalf("non-due switch leaked into the round: %+v", res)
	}
	if flow, echo := idle.calls(); flow != 0 || echo != 0 {
		t.Fatalf("non-due switch was contacted: flow=%d echo=%d", flow, echo)
	}
}

// TestPollCancelledMidBackoffReturnsPromptly pins the satellite
// requirement: a context cancelled while a retry backoff sleep is in
// flight must abort the wait immediately instead of sleeping it out.
// The backoff here is 30s with real timers; without context plumbing
// the poll could not return within the asserted bound.
func TestPollCancelledMidBackoffReturnsPromptly(t *testing.T) {
	// One subtest per fetch entry point; PollSnapshots is the only one.
	t.Run("snapshots", func(t *testing.T) {
		boom := errors.New("down")
		sw := &scripted{flow: func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
			return nil, boom
		}}
		rc := NewRobustFromStats(map[topo.SwitchID]StatsClient{1: sw}, RobustConfig{
			Attempts:    3,
			BackoffBase: 30 * time.Second,
			BackoffMax:  30 * time.Second,
			JitterFrac:  -1,
		})
		// No sleep hook: the 30s backoff wait is real, and only ctx
		// cancellation can cut it short.
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		_, err := rc.PollSnapshots(ctx, nil)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatal("cancelled poll returned nil error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("cancelled poll took %v; backoff sleep ignored cancellation", elapsed)
		}
	})
}
