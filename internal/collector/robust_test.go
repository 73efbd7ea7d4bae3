package collector

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"foces/internal/controller"
	"foces/internal/dataplane"
	"foces/internal/openflow"
	"foces/internal/topo"
)

// scripted is a StatsClient whose behaviour is a per-call function —
// the scripted switch behind the fault-machinery tests. Call counters
// start at 1.
type scripted struct {
	mu        sync.Mutex
	flowCalls int
	echoCalls int
	flow      func(call int, ctx context.Context) (*openflow.FlowStatsReply, error)
	echo      func(call int, ctx context.Context) error
}

func (s *scripted) FlowStatsContext(ctx context.Context) (*openflow.FlowStatsReply, error) {
	s.mu.Lock()
	s.flowCalls++
	n := s.flowCalls
	s.mu.Unlock()
	if s.flow == nil {
		return &openflow.FlowStatsReply{}, nil
	}
	return s.flow(n, ctx)
}

func (s *scripted) EchoContext(ctx context.Context) error {
	s.mu.Lock()
	s.echoCalls++
	n := s.echoCalls
	s.mu.Unlock()
	if s.echo == nil {
		return nil
	}
	return s.echo(n, ctx)
}

func (s *scripted) calls() (flow, echo int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flowCalls, s.echoCalls
}

func reply(stats map[int]uint64) *openflow.FlowStatsReply {
	r := &openflow.FlowStatsReply{}
	for rid, v := range stats {
		r.Stats = append(r.Stats, openflow.FlowStat{RuleID: rid, Packets: v})
	}
	return r
}

// newTestCollector builds a collector whose backoff sleeps are no-ops,
// so retry-heavy scripts run instantly.
func newTestCollector(clients map[topo.SwitchID]StatsClient, cfg RobustConfig) *RobustCollector {
	rc := NewRobustFromStats(clients, cfg)
	rc.sleep = func(time.Duration) {}
	return rc
}

// roundResult is one round through the window-producing path: the
// assembled window plus the switches the fetch reinstated.
type roundResult struct {
	Window
	Reinstated []topo.SwitchID
}

// pumpRound runs one round of the one window producer — PollSnapshots
// on the switches the open window waits for, failed switches forgotten
// and marked missing, skipped ones marked missing, the rest pushed —
// and returns the window it completes.
func pumpRound(ctx context.Context, rc *RobustCollector, asm *WindowAssembler) (roundResult, error) {
	due := asm.Due()
	snap, err := rc.PollSnapshots(ctx, due)
	if err != nil {
		return roundResult{}, err
	}
	for _, sw := range snap.Failed {
		asm.Forget(sw)
	}
	for _, sw := range due {
		if counters, ok := snap.Snapshots[sw]; ok {
			if err := asm.Push(Update{Switch: sw, Counters: counters}); err != nil {
				return roundResult{}, err
			}
		}
	}
	asm.MarkMissing(snap.Failed...)
	asm.MarkMissing(snap.Skipped...)
	select {
	case w := <-asm.Windows():
		return roundResult{Window: w, Reinstated: snap.Reinstated}, nil
	case <-time.After(5 * time.Second):
		return roundResult{}, errors.New("round completed no window")
	}
}

// pipeline pairs a collector with an assembler over its switches.
type pipeline struct {
	rc  *RobustCollector
	asm *WindowAssembler
}

func newPipeline(rc *RobustCollector) *pipeline {
	switches := make([]topo.SwitchID, 0, len(rc.slots))
	for _, s := range rc.slots {
		switches = append(switches, s.sw)
	}
	return &pipeline{rc: rc, asm: NewWindowAssembler(switches, StreamConfig{})}
}

func (p *pipeline) round(t *testing.T) roundResult {
	t.Helper()
	res, err := pumpRound(context.Background(), p.rc, p.asm)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRobustRetryThenSuccess(t *testing.T) {
	transient := errors.New("transient transport error")
	sw := &scripted{flow: func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
		switch call {
		case 1: // prime
			return reply(map[int]uint64{1: 0}), nil
		case 2, 3: // period 1, attempts 1-2: fail
			return nil, transient
		default: // attempt 3 succeeds
			return reply(map[int]uint64{1: 100}), nil
		}
	}}
	rc := newTestCollector(map[topo.SwitchID]StatsClient{0: sw}, RobustConfig{Attempts: 3})
	p := newPipeline(rc)
	p.round(t) // prime
	res := p.round(t)
	if len(res.Missing) != 0 {
		t.Fatalf("retried poll must recover, missing=%v", res.Missing)
	}
	if res.Deltas[1] != 100 {
		t.Fatalf("delta = %v, want rule1=100", res.Deltas)
	}
	m := rc.Metrics()
	if m.Retries != 2 || m.Requests != 4 || m.Failures != 0 {
		t.Fatalf("metrics = %+v, want retries=2 requests=4 failures=0", m)
	}
	if h := rc.Health()[0]; h != Healthy {
		t.Fatalf("health = %v, want healthy", h)
	}
}

func TestRobustDeadlineThenRecovery(t *testing.T) {
	// Period 1's replies arrive slower than the deadline (the switch
	// blocks until the request context expires); period 2 recovers but
	// only re-primes the stale baseline; period 3 flows again.
	sw := &scripted{flow: func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
		switch call {
		case 1:
			return reply(map[int]uint64{1: 10}), nil
		case 2, 3:
			<-ctx.Done()
			return nil, ctx.Err()
		case 4:
			return reply(map[int]uint64{1: 50}), nil
		default:
			return reply(map[int]uint64{1: 80}), nil
		}
	}}
	rc := newTestCollector(map[topo.SwitchID]StatsClient{3: sw},
		RobustConfig{Deadline: 20 * time.Millisecond, Attempts: 2, QuarantineAfter: 2})
	p := newPipeline(rc)
	p.round(t) // prime

	res := p.round(t) // both attempts time out
	if len(res.Missing) != 1 || res.Missing[0] != 3 {
		t.Fatalf("slow switch must be missing, got %v", res.Missing)
	}
	if h := rc.Health()[3]; h != Degraded {
		t.Fatalf("health after one failed poll = %v, want degraded", h)
	}
	m := rc.Metrics()
	if m.Timeouts != 2 || m.Failures != 1 {
		t.Fatalf("metrics = %+v, want timeouts=2 failures=1", m)
	}

	res = p.round(t) // recovery: answers, but baseline is stale
	if len(res.Missing) != 1 {
		t.Fatalf("recovery period must only re-prime, missing=%v", res.Missing)
	}
	if h := rc.Health()[3]; h != Healthy {
		t.Fatalf("health after recovery = %v, want healthy", h)
	}

	res = p.round(t) // clean one-period delta
	if len(res.Missing) != 0 || res.Deltas[1] != 30 {
		t.Fatalf("post-recovery delta = %v missing=%v, want rule1=30", res.Deltas, res.Missing)
	}
}

func TestRobustQuarantineAndReinstatement(t *testing.T) {
	dead := errors.New("switch unreachable")
	// Switch 1 dies after priming; its first reinstatement probe fails,
	// the second succeeds. Switch 2 stays healthy throughout.
	var alive sync.Map
	alive.Store("up", false)
	up := func() bool { v, _ := alive.Load("up"); return v.(bool) }
	a := &scripted{
		flow: func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
			if call == 1 {
				return reply(map[int]uint64{1: 0}), nil
			}
			if !up() {
				return nil, dead
			}
			return reply(map[int]uint64{1: uint64(call) * 10}), nil
		},
		echo: func(call int, ctx context.Context) error {
			if !up() {
				return dead
			}
			return nil
		},
	}
	b := &scripted{flow: func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
		return reply(map[int]uint64{2: uint64(call) * 100}), nil
	}}
	rc := newTestCollector(map[topo.SwitchID]StatsClient{1: a, 2: b},
		RobustConfig{Attempts: 1, QuarantineAfter: 2, ProbeEvery: 2})
	p := newPipeline(rc)
	p.round(t) // prime

	p.round(t) // period 2: fail #1 -> degraded
	if h := rc.Health()[1]; h != Degraded {
		t.Fatalf("after fail 1: %v", h)
	}
	p.round(t) // period 3: fail #2 -> quarantined
	if h := rc.Health()[1]; h != Quarantined {
		t.Fatalf("after fail 2: %v", h)
	}
	if q := rc.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("quarantined = %v", q)
	}

	flowBefore, _ := a.calls()
	res := p.round(t) // period 4: quarantined, probe not yet due
	flowAfter, echoAfter := a.calls()
	if flowAfter != flowBefore || echoAfter != 0 {
		t.Fatalf("quarantined switch polled while not due: flow %d->%d echo=%d",
			flowBefore, flowAfter, echoAfter)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 1 {
		t.Fatalf("period 4 missing = %v", res.Missing)
	}
	if res.Deltas[2] == 0 {
		t.Fatal("healthy switch must keep producing deltas during the outage")
	}

	res = p.round(t) // period 5: probe due, fails -> stays quarantined
	if _, echo := a.calls(); echo != 1 {
		t.Fatalf("probe not sent: echo calls = %d", echo)
	}
	if h := rc.Health()[1]; h != Quarantined {
		t.Fatalf("failed probe must not reinstate: %v", h)
	}

	alive.Store("up", true)
	p.round(t)       // period 6: quarantined, probe not due
	res = p.round(t) // period 7: probe succeeds -> reinstated, re-primes
	if len(res.Reinstated) != 1 || res.Reinstated[0] != 1 {
		t.Fatalf("reinstated = %v", res.Reinstated)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 1 {
		t.Fatalf("reinstatement period must only re-prime, missing=%v", res.Missing)
	}
	if h := rc.Health()[1]; h != Degraded {
		t.Fatalf("health right after reinstatement = %v, want degraded", h)
	}

	res = p.round(t) // period 8: clean delta again
	if len(res.Missing) != 0 {
		t.Fatalf("post-reinstatement missing = %v", res.Missing)
	}
	if res.Deltas[1] == 0 {
		t.Fatalf("reinstated switch produced no delta: %v", res.Deltas)
	}
	if h := rc.Health()[1]; h != Healthy {
		t.Fatalf("final health = %v", h)
	}

	m := rc.Metrics()
	if m.Quarantines != 1 || m.Reinstatements != 1 || m.Probes != 2 {
		t.Fatalf("metrics = %+v, want quarantines=1 reinstatements=1 probes=2", m)
	}
}

func TestRobustCounterReset(t *testing.T) {
	// Cumulative counters 100, 200, 50, 80: the drop to 50 is a restart
	// (treated as missing, re-baselined), so 80 yields a delta of 30.
	vals := []uint64{100, 200, 50, 80}
	sw := &scripted{flow: func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
		v := vals[len(vals)-1]
		if call <= len(vals) {
			v = vals[call-1]
		}
		return reply(map[int]uint64{7: v}), nil
	}}
	rc := newTestCollector(map[topo.SwitchID]StatsClient{5: sw}, RobustConfig{})
	p := newPipeline(rc)
	p.round(t) // prime

	res := p.round(t)
	if res.Deltas[7] != 100 || len(res.Missing) != 0 {
		t.Fatalf("period 2: deltas=%v missing=%v", res.Deltas, res.Missing)
	}

	res = p.round(t) // 200 -> 50: reset
	if len(res.Resets) != 1 || res.Resets[0] != 5 {
		t.Fatalf("reset not detected: %v", res.Resets)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 5 {
		t.Fatalf("reset period must be missing, got %v", res.Missing)
	}
	if len(res.Deltas) != 0 {
		t.Fatalf("reset period leaked a garbage delta: %v", res.Deltas)
	}
	if h := rc.Health()[5]; h != Healthy {
		t.Fatalf("a reset is a data fault, not a liveness fault: %v", h)
	}

	res = p.round(t) // 50 -> 80
	if res.Deltas[7] != 30 || len(res.Missing) != 0 {
		t.Fatalf("post-reset delta = %v missing=%v, want 30", res.Deltas, res.Missing)
	}
	if st := p.asm.Stats(); st.Resets != 1 {
		t.Fatalf("stream stats resets = %d", st.Resets)
	}
}

func TestRobustDuplicateRules(t *testing.T) {
	// Both switches claim rule 7 — counter shadowing. The lowest switch
	// ID's value must win and the duplicate must be reported.
	a := &scripted{flow: func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
		return reply(map[int]uint64{7: uint64(call) * 10}), nil
	}}
	b := &scripted{flow: func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
		return reply(map[int]uint64{7: uint64(call) * 1000, 8: uint64(call)}), nil
	}}
	rc := newTestCollector(map[topo.SwitchID]StatsClient{1: a, 2: b}, RobustConfig{})
	p := newPipeline(rc)
	p.round(t) // prime
	res := p.round(t)
	if len(res.DuplicateRules) != 1 || res.DuplicateRules[0] != 7 {
		t.Fatalf("duplicates = %v, want [7]", res.DuplicateRules)
	}
	if res.Deltas[7] != 10 {
		t.Fatalf("rule 7 delta = %d, want switch 1's 10", res.Deltas[7])
	}
	if res.Deltas[8] != 1 {
		t.Fatalf("rule 8 delta = %d, want 1", res.Deltas[8])
	}
	if st := p.asm.Stats(); st.DuplicateRules == 0 {
		t.Fatal("duplicate not counted in stream stats")
	}
}

func TestRobustPollCancelled(t *testing.T) {
	rc := newTestCollector(map[topo.SwitchID]StatsClient{0: &scripted{}}, RobustConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rc.PollSnapshots(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled poll: err = %v", err)
	}
}

func TestRobustNoSwitches(t *testing.T) {
	rc := newTestCollector(nil, RobustConfig{})
	if _, err := rc.PollSnapshots(context.Background(), nil); err == nil {
		t.Fatal("empty collector must error")
	}
}

func TestRobustMissingSorted(t *testing.T) {
	dead := errors.New("down")
	clients := make(map[topo.SwitchID]StatsClient)
	for _, sw := range []topo.SwitchID{9, 4, 7, 1} {
		clients[sw] = &scripted{flow: func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
			return nil, dead
		}}
	}
	rc := newTestCollector(clients, RobustConfig{Attempts: 1})
	res := newPipeline(rc).round(t)
	want := []topo.SwitchID{1, 4, 7, 9}
	if len(res.Missing) != len(want) {
		t.Fatalf("missing = %v", res.Missing)
	}
	for i, sw := range want {
		if res.Missing[i] != sw {
			t.Fatalf("missing = %v, want ascending %v", res.Missing, want)
		}
	}
}

// TestRobustAgentDeathMidPoll drives the collector against the real
// control channel: agents die (their connections drop) while polls are
// in flight, and the collector must degrade the dead switches without
// stalling or corrupting the live ones. Run under -race.
func TestRobustAgentDeathMidPoll(t *testing.T) {
	top, err := topo.Linear(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, network, err := controller.Bootstrap(top, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHarness(network)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rc := NewRobust(h.Clients, RobustConfig{
		Deadline:        200 * time.Millisecond,
		Attempts:        2,
		BackoffBase:     time.Millisecond,
		BackoffMax:      2 * time.Millisecond,
		QuarantineAfter: 2,
		ProbeEvery:      2,
	})
	p := newPipeline(rc)
	p.round(t) // prime
	rng := rand.New(rand.NewSource(11))

	victim := top.Switches()[1].ID
	killed := make(chan struct{})
	sawMissing := false
	for period := 0; period < 6; period++ {
		if _, err := network.Run(rng, dataplane.UniformTraffic(top, 50)); err != nil {
			t.Fatal(err)
		}
		if period == 1 {
			// Kill the victim's agent mid-run, with the collector's next
			// poll racing the connection teardown.
			go func() { h.Agents[victim].Close(); close(killed) }()
		}
		if period == 2 {
			// From here the victim is certainly dead.
			<-killed
		}
		res := p.round(t)
		for _, sw := range res.Missing {
			if sw == victim {
				sawMissing = true
			}
		}
		// Live switches' rows must never go missing.
		for _, sw := range res.Missing {
			if sw != victim {
				t.Fatalf("period %d: live switch %d reported missing", period, sw)
			}
		}
	}
	if !sawMissing {
		t.Fatal("dead agent never surfaced as missing")
	}
	if h := rc.Health()[victim]; h != Quarantined {
		t.Fatalf("victim health = %v, want quarantined", h)
	}
	if m := rc.Metrics(); m.Failures == 0 || m.Quarantines != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestBackoffBoundsAndJitter(t *testing.T) {
	cfg := RobustConfig{BackoffBase: 10 * time.Millisecond, BackoffMax: 40 * time.Millisecond, JitterFrac: 0.5}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 6; attempt++ {
		base := cfg.BackoffBase << attempt
		if base > cfg.BackoffMax {
			base = cfg.BackoffMax
		}
		for i := 0; i < 100; i++ {
			d := backoff(cfg, attempt, rng)
			lo := time.Duration(float64(base) * (1 - cfg.JitterFrac))
			hi := time.Duration(float64(base) * (1 + cfg.JitterFrac))
			if d < lo || d > hi {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
	// Jitter disabled: exact exponential.
	noJitter := RobustConfig{BackoffBase: 10 * time.Millisecond, BackoffMax: 40 * time.Millisecond, JitterFrac: -1}.withDefaults()
	if d := backoff(noJitter, 0, rng); d != 10*time.Millisecond {
		t.Fatalf("attempt 0 = %v", d)
	}
	if d := backoff(noJitter, 2, rng); d != 40*time.Millisecond {
		t.Fatalf("attempt 2 must cap at max, got %v", d)
	}
}
