package collector

// The pre-slot RobustCollector, kept as the oracle for the slot-based
// one: planLocked, fetchOutcomes and absorbLocked (and the
// PollSnapshots body that drove them) are the code as it stood before
// per-switch slots, a shared first-attempt deadline, a lazily seeded
// jitter source and reused snapshot maps replaced it — renamed ref* and
// minus telemetry, otherwise verbatim. TestRobustMatchesReference drives
// both over the same scripted fault schedules and demands identical
// results, metrics, health and backoffs, round by round.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"foces/internal/openflow"
	"foces/internal/topo"
)

// refSwitchState is one switch's slot in the health state machine.
type refSwitchState struct {
	health     SwitchHealth
	fails      int // consecutive failed polls
	sinceProbe int // periods spent waiting in quarantine
}

type refCollector struct {
	cfg RobustConfig

	mu      sync.Mutex
	clients map[topo.SwitchID]StatsClient
	order   []topo.SwitchID
	state   map[topo.SwitchID]*refSwitchState
	metrics RobustMetrics

	sleep func(time.Duration)
	now   func() time.Time
}

func newRefCollector(clients map[topo.SwitchID]StatsClient, cfg RobustConfig) *refCollector {
	rc := &refCollector{
		cfg:     cfg.withDefaults(),
		clients: make(map[topo.SwitchID]StatsClient, len(clients)),
		state:   make(map[topo.SwitchID]*refSwitchState, len(clients)),
	}
	for sw, c := range clients {
		rc.clients[sw] = c
		rc.state[sw] = &refSwitchState{}
		rc.order = append(rc.order, sw)
	}
	sort.Slice(rc.order, func(i, j int) bool { return rc.order[i] < rc.order[j] })
	return rc
}

// refOutcome is one switch's raw result from the concurrent phase.
type refOutcome struct {
	reply    *openflow.FlowStatsReply
	err      error
	requests uint64
	retries  uint64
	timeouts uint64
	probed   bool
	probeOK  bool
}

// refPlan is one switch's assignment for the concurrent fetch phase.
type refPlan struct {
	sw     topo.SwitchID
	client StatsClient
	probe  bool // quarantined: echo first, poll only if it succeeds
}

// planLocked selects the switches to contact this period, advancing
// quarantine probe cadence. due restricts the plan to a subset (nil =
// every switch); switches outside due are untouched — no health
// transition, no probe-cadence tick. Caller holds rc.mu.
func (rc *refCollector) planLocked(due map[topo.SwitchID]bool) []refPlan {
	var plans []refPlan
	for _, sw := range rc.order {
		if due != nil && !due[sw] {
			continue
		}
		st := rc.state[sw]
		if st.health == Quarantined {
			st.sinceProbe++
			if st.sinceProbe >= rc.cfg.ProbeEvery {
				st.sinceProbe = 0
				plans = append(plans, refPlan{sw: sw, client: rc.clients[sw], probe: true})
			}
			continue
		}
		plans = append(plans, refPlan{sw: sw, client: rc.clients[sw]})
	}
	return plans
}

// refFetchOutcomes runs the concurrent phase: every planned switch is
// probed/polled under per-request deadlines with bounded retries.
// Backoff waits between retries abort promptly on ctx cancellation.
func refFetchOutcomes(ctx context.Context, cfg RobustConfig, plans []refPlan, period uint64, sleep func(time.Duration)) map[topo.SwitchID]*refOutcome {
	outcomes := make(map[topo.SwitchID]*refOutcome, len(plans))
	var outMu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range plans {
		wg.Add(1)
		go func(p refPlan) {
			defer wg.Done()
			o := &refOutcome{probed: p.probe}
			// Per-goroutine jitter source: deterministic under the seed,
			// race-free without locking the collector.
			rng := rand.New(rand.NewSource(cfg.Seed ^ int64(p.sw)<<16 ^ int64(period)))
			if p.probe {
				probeCtx, cancel := context.WithTimeout(ctx, cfg.Deadline)
				err := p.client.EchoContext(probeCtx)
				cancel()
				if err != nil {
					o.err = err
					if errors.Is(err, context.DeadlineExceeded) {
						o.timeouts++
					}
					outMu.Lock()
					outcomes[p.sw] = o
					outMu.Unlock()
					return
				}
				o.probeOK = true
			}
			for attempt := 0; attempt < cfg.Attempts; attempt++ {
				if attempt > 0 {
					if !ctxSleep(ctx, backoff(cfg, attempt-1, rng), sleep) {
						o.err = ctx.Err()
						break // cancelled mid-backoff; stop retrying
					}
					o.retries++
				}
				reqCtx, cancel := context.WithTimeout(ctx, cfg.Deadline)
				reply, err := p.client.FlowStatsContext(reqCtx)
				cancel()
				o.requests++
				if err == nil {
					o.reply, o.err = reply, nil
					break
				}
				o.err = err
				if errors.Is(err, context.DeadlineExceeded) {
					o.timeouts++
				}
				if ctx.Err() != nil {
					break // the whole poll was cancelled; stop retrying
				}
			}
			outMu.Lock()
			outcomes[p.sw] = o
			outMu.Unlock()
		}(p)
	}
	wg.Wait()
	return outcomes
}

// refAbsorbed is one switch's post-bookkeeping round outcome.
type refAbsorbed struct {
	sw         topo.SwitchID
	disp       switchDisposition
	reinstated bool
	counters   map[int]uint64 // cumulative snapshot, dispOK only
}

// absorbLocked folds fetch outcomes into the health state machine and
// operational metrics, in ascending switch order, and returns each
// considered switch's disposition plus its raw cumulative snapshot.
// due restricts the walk (nil = every switch). Caller holds rc.mu.
func (rc *refCollector) absorbLocked(outcomes map[topo.SwitchID]*refOutcome, due map[topo.SwitchID]bool) []refAbsorbed {
	var out []refAbsorbed
	for _, sw := range rc.order {
		if due != nil && !due[sw] {
			continue
		}
		st := rc.state[sw]
		o, polled := outcomes[sw]
		if !polled {
			// Quarantined and not due for a probe this period.
			out = append(out, refAbsorbed{sw: sw, disp: dispSkipped})
			continue
		}
		rc.metrics.Requests += o.requests
		rc.metrics.Retries += o.retries
		rc.metrics.Timeouts += o.timeouts
		if o.probed {
			rc.metrics.Probes++
			if !o.probeOK {
				// Probe failed; stay quarantined, wait out another window.
				out = append(out, refAbsorbed{sw: sw, disp: dispFailed})
				continue
			}
		}
		if o.err != nil {
			// Poll exhausted its attempts (or the probe succeeded but the
			// full poll did not). The switch's baseline is now stale — a
			// delta across the gap would span several periods of traffic
			// and read as a false anomaly — so the next successful poll
			// must re-prime rather than difference.
			rc.metrics.Failures++
			st.fails++
			if st.health == Quarantined {
				// Probe passed but the poll failed: not reinstated.
				out = append(out, refAbsorbed{sw: sw, disp: dispFailed})
				continue
			}
			if st.fails >= rc.cfg.QuarantineAfter {
				st.health = Quarantined
				st.sinceProbe = 0
				rc.metrics.Quarantines++
			} else {
				st.health = Degraded
			}
			out = append(out, refAbsorbed{sw: sw, disp: dispFailed})
			continue
		}
		a := refAbsorbed{sw: sw, disp: dispOK}
		if st.health == Quarantined {
			st.health = Degraded
			rc.metrics.Reinstatements++
			a.reinstated = true
		} else {
			st.health = Healthy
		}
		st.fails = 0
		a.counters = make(map[int]uint64, len(o.reply.Stats))
		for _, s := range o.reply.Stats {
			a.counters[s.RuleID] = s.Packets
		}
		out = append(out, a)
	}
	return out
}

// PollSnapshots runs one fault-tolerant fetch round restricted to the
// due switches (nil = all) and returns raw cumulative snapshots.
// Switches outside due are left untouched: no health transition and no probe-cadence tick, so an
// adaptive sampler backing off a switch does not distort its health.
func (rc *refCollector) PollSnapshots(ctx context.Context, due []topo.SwitchID) (SnapshotResult, error) {
	rc.mu.Lock()
	if len(rc.clients) == 0 {
		rc.mu.Unlock()
		return SnapshotResult{}, errors.New("collector: no switches to poll")
	}
	var dueSet map[topo.SwitchID]bool
	if due != nil {
		dueSet = make(map[topo.SwitchID]bool, len(due))
		for _, sw := range due {
			if _, ok := rc.clients[sw]; ok {
				dueSet[sw] = true
			}
		}
	}
	rc.metrics.Periods++
	period := rc.metrics.Periods
	plans := rc.planLocked(dueSet)
	cfg := rc.cfg
	sleep := rc.sleep
	now := rc.now
	if now == nil {
		now = time.Now
	}
	rc.mu.Unlock()

	start := now()
	outcomes := refFetchOutcomes(ctx, cfg, plans, period, sleep)
	if err := ctx.Err(); err != nil {
		return SnapshotResult{}, fmt.Errorf("collector: poll cancelled: %w", err)
	}

	rc.mu.Lock()
	defer rc.mu.Unlock()
	res := SnapshotResult{Snapshots: make(map[topo.SwitchID]map[int]uint64)}
	for _, a := range rc.absorbLocked(outcomes, dueSet) {
		switch a.disp {
		case dispSkipped:
			res.Skipped = append(res.Skipped, a.sw)
		case dispFailed:
			res.Failed = append(res.Failed, a.sw)
		case dispOK:
			if a.reinstated {
				res.Reinstated = append(res.Reinstated, a.sw)
			}
			res.Snapshots[a.sw] = a.counters
		}
	}
	res.Elapsed = now().Sub(start)
	rc.metrics.LastElapsed = res.Elapsed
	return res, nil
}

// faultScript is one switch's behaviour as a function of its own call
// counts, so the old and the new collector — each handed a fresh
// instance — see the same switch as long as they make the same calls.
type faultScript struct {
	flow func(call int, echoes int, ctx context.Context) (*openflow.FlowStatsReply, error)
	echo func(call int, ctx context.Context) error
}

func (f faultScript) client() *scripted {
	var echoes atomic.Int64
	s := &scripted{}
	if f.flow != nil {
		s.flow = func(call int, ctx context.Context) (*openflow.FlowStatsReply, error) {
			return f.flow(call, int(echoes.Load()), ctx)
		}
	}
	s.echo = func(call int, ctx context.Context) error {
		echoes.Store(int64(call))
		if f.echo == nil {
			return nil
		}
		return f.echo(call, ctx)
	}
	return s
}

// blockUntilDeadline is a switch whose reply never arrives.
func blockUntilDeadline(ctx context.Context) (*openflow.FlowStatsReply, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func referenceScripts() map[topo.SwitchID]faultScript {
	transient := errors.New("transient transport error")
	dead := errors.New("openflow: connection failed: EOF")
	return map[topo.SwitchID]faultScript{
		// Steady, but claims rule 7, which switch 2 reports too.
		1: {flow: func(call, _ int, _ context.Context) (*openflow.FlowStatsReply, error) {
			return reply(map[int]uint64{1: uint64(10 * call), 7: uint64(3 * call)}), nil
		}},
		2: {flow: func(call, _ int, _ context.Context) (*openflow.FlowStatsReply, error) {
			return reply(map[int]uint64{2: uint64(100 * call), 7: uint64(1000 * call)}), nil
		}},
		// Flaky: a retry or two usually recovers it (drawing jittered
		// backoffs); calls 15-20 fail six times running, i.e. two whole
		// polls, so it is quarantined once and reinstated by its probe.
		3: {flow: func(call, _ int, _ context.Context) (*openflow.FlowStatsReply, error) {
			if call%5 == 2 || call%5 == 3 || (call >= 15 && call <= 20) {
				return nil, transient
			}
			return reply(map[int]uint64{3: uint64(7 * call)}), nil
		}},
		// Slow: every attempt of one poll times out (deadline, then
		// recovery), later — twice — two polls running do (quarantine),
		// and its first probe times out as well.
		4: {
			flow: func(call, _ int, ctx context.Context) (*openflow.FlowStatsReply, error) {
				if (call >= 4 && call <= 6) || (call >= 12 && call <= 17) || (call >= 40 && call <= 45) {
					return blockUntilDeadline(ctx)
				}
				return reply(map[int]uint64{4: uint64(5 * call), 40: 1}), nil
			},
			echo: func(call int, ctx context.Context) error {
				if call == 1 {
					<-ctx.Done()
					return ctx.Err()
				}
				return nil
			},
		},
		// The agent dies mid-run: every request fails from call 6 on,
		// and so do the first two probes; the third finds it back, but
		// the poll after that probe fails once more (probe passed, poll
		// failed: not reinstated) before it recovers for good.
		5: {
			flow: func(call, echoes int, _ context.Context) (*openflow.FlowStatsReply, error) {
				if call < 6 {
					return reply(map[int]uint64{5: uint64(call), 50: uint64(2 * call)}), nil
				}
				if echoes < 4 {
					return nil, dead
				}
				return reply(map[int]uint64{5: uint64(1000 + call), 50: uint64(2000 + 2*call)}), nil
			},
			echo: func(call int, _ context.Context) error {
				if call <= 2 {
					return dead
				}
				return nil
			},
		},
		// Restarts: its counters fall back at calls 8 and 45 (reset),
		// and rule 61 disappears at call 14 (deleted).
		6: {flow: func(call, _ int, _ context.Context) (*openflow.FlowStatsReply, error) {
			v := uint64(100 * call)
			if call >= 8 {
				v = uint64(5 * (call - 7))
			}
			if call >= 45 {
				v = uint64(call - 44)
			}
			counters := map[int]uint64{6: v}
			if call < 14 {
				counters[61] = uint64(call)
			}
			return reply(counters), nil
		}},
	}
}

// sleepLog records the backoffs one collector asked for in a round.
type sleepLog struct {
	mu     sync.Mutex
	waits  []time.Duration
	onWait func() // run inside the hook, i.e. mid-backoff
}

func (l *sleepLog) hook(d time.Duration) {
	l.mu.Lock()
	l.waits = append(l.waits, d)
	f := l.onWait
	l.mu.Unlock()
	if f != nil {
		f()
	}
}

// take returns the round's backoffs, sorted: switches back off
// concurrently, so only the multiset is defined.
func (l *sleepLog) take() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.waits
	l.waits = nil
	slices.Sort(out)
	return out
}

// copySnapshots detaches a SnapshotResult from the collector's reused
// maps, so it can be compared after later rounds too.
func copySnapshots(in map[topo.SwitchID]map[int]uint64) map[topo.SwitchID]map[int]uint64 {
	out := make(map[topo.SwitchID]map[int]uint64, len(in))
	for sw, m := range in {
		cp := make(map[int]uint64, len(m))
		for rid, v := range m {
			cp[rid] = v
		}
		out[sw] = cp
	}
	return out
}

func TestRobustMatchesReference(t *testing.T) {
	const rounds, cancelled = 64, 31
	cfg := RobustConfig{
		Deadline:        5 * time.Millisecond,
		Attempts:        3,
		QuarantineAfter: 2,
		ProbeEvery:      2,
		Seed:            42,
	}
	// Switch 7 is a real control-channel client that was closed — the
	// dead switch of faults_test.go; being stateless it serves both.
	_, clientEnd := net.Pipe()
	closed := openflow.NewClient(clientEnd, time.Second)
	_ = closed.Close()

	oldClients := map[topo.SwitchID]StatsClient{7: closed}
	newClients := map[topo.SwitchID]StatsClient{7: closed}
	oldScripted := map[topo.SwitchID]*scripted{}
	newScripted := map[topo.SwitchID]*scripted{}
	for sw, script := range referenceScripts() {
		oldScripted[sw], newScripted[sw] = script.client(), script.client()
		oldClients[sw], newClients[sw] = oldScripted[sw], newScripted[sw]
	}
	fixed := func() time.Time { return time.Unix(0, 0) }
	var oldSleeps, newSleeps sleepLog
	ref := newRefCollector(oldClients, cfg)
	ref.sleep, ref.now = oldSleeps.hook, fixed
	rc := NewRobustFromStats(newClients, cfg)
	rc.sleep, rc.now = newSleeps.hook, fixed

	subset := []topo.SwitchID{1, 3, 5, 6, 99} // 99: unknown, ignored
	for round := 1; round <= rounds; round++ {
		// One round is cancelled mid-backoff: switch 3's first attempt
		// fails there (its call 52), and its backoff hook pulls the plug.
		oldCtx, oldCancel := context.WithCancel(context.Background())
		newCtx, newCancel := context.WithCancel(context.Background())
		oldSleeps.onWait, newSleeps.onWait = nil, nil
		if round == cancelled {
			oldSleeps.onWait, newSleeps.onWait = oldCancel, newCancel
		}
		var due []topo.SwitchID // every switch
		if round%4 == 0 {
			due = subset
		}
		want, wantErr := ref.PollSnapshots(oldCtx, due)
		got, gotErr := rc.PollSnapshots(newCtx, due)
		if gotErr == nil {
			got.Snapshots = copySnapshots(got.Snapshots)
		}
		oldCancel()
		newCancel()
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("round %d: error %v, reference %v", round, gotErr, wantErr)
		}
		if (round == cancelled) != (gotErr != nil) {
			t.Fatalf("round %d: error %v; exactly round %d is cancelled", round, gotErr, cancelled)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: result\n  %+v\nreference\n  %+v", round, got, want)
		}
		if g, w := rc.Metrics(), ref.metrics; g != w {
			t.Fatalf("round %d: metrics\n  %+v\nreference\n  %+v", round, g, w)
		}
		health := rc.Health()
		for sw, st := range ref.state {
			if health[sw] != st.health {
				t.Fatalf("round %d: switch %d is %v, reference %v", round, sw, health[sw], st.health)
			}
		}
		if g, w := newSleeps.take(), oldSleeps.take(); !slices.Equal(g, w) {
			t.Fatalf("round %d: backoffs %v, reference %v", round, g, w)
		}
		for sw := range oldScripted {
			of, oe := oldScripted[sw].calls()
			nf, ne := newScripted[sw].calls()
			if of != nf || oe != ne {
				t.Fatalf("round %d: switch %d got %d polls and %d probes, reference %d and %d", round, sw, nf, ne, of, oe)
			}
		}
	}

	// The schedule must actually have exercised what it claims to.
	m := rc.Metrics()
	if m.Retries == 0 || m.Timeouts == 0 || m.Failures == 0 || m.Probes == 0 ||
		m.Quarantines < 5 || m.Reinstatements < 4 {
		t.Fatalf("schedule too tame: %+v", m)
	}
	if h := rc.Health(); h[7] != Quarantined || h[1] != Healthy {
		t.Fatalf("final health = %v", h)
	}
}
