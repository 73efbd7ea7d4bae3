package collector

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"foces/internal/openflow"
	"foces/internal/telemetry"
	"foces/internal/topo"
)

// StatsClient is the slice of openflow.Client the robust collector
// needs: deadline-bounded counter polls and a cheap liveness probe.
// Narrowing to an interface keeps the fault machinery testable against
// scripted switches without a real control channel.
type StatsClient interface {
	FlowStatsContext(ctx context.Context) (*openflow.FlowStatsReply, error)
	EchoContext(ctx context.Context) error
}

// SwitchHealth is the collector's per-switch availability state.
type SwitchHealth int

// Health states. A switch moves Healthy → Degraded on its first failed
// poll, Degraded → Quarantined after QuarantineAfter consecutive
// failures, and Quarantined → Degraded when a reinstatement probe
// succeeds (its first post-outage snapshot only re-baselines the
// window assembler's delta tracker, so one clean window passes before
// its counters count again).
const (
	Healthy SwitchHealth = iota
	Degraded
	Quarantined
)

func (h SwitchHealth) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("health-%d", int(h))
	}
}

// RobustConfig tunes the fault-tolerant collector. The zero value
// selects production-ish defaults scaled for the in-memory channel.
type RobustConfig struct {
	// Deadline bounds each individual request; zero selects 2s.
	Deadline time.Duration
	// Attempts is the maximum number of flow-stats requests per switch
	// per period (1 = no retry); zero selects 3.
	Attempts int
	// BackoffBase is the first retry delay; it doubles per attempt up
	// to BackoffMax. Zero selects 50ms (capped at 1s).
	BackoffBase time.Duration
	// BackoffMax caps the exponential backoff; zero selects 1s.
	BackoffMax time.Duration
	// JitterFrac spreads each backoff by ±JitterFrac so synchronized
	// retries cannot stampede a recovering switch; zero selects 0.2,
	// negative disables jitter.
	JitterFrac float64
	// QuarantineAfter is the number of consecutive failed polls before
	// a switch is quarantined (skipped entirely, so a flapping switch
	// cannot stall the detection period); zero selects 2.
	QuarantineAfter int
	// ProbeEvery is how many periods a quarantined switch waits between
	// reinstatement probes; zero selects 3.
	ProbeEvery int
	// Seed drives backoff jitter deterministically; zero selects 1.
	Seed int64
}

func (c RobustConfig) withDefaults() RobustConfig {
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Second
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.JitterFrac == 0 {
		c.JitterFrac = 0.2
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 2
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RobustMetrics is a snapshot of the collection plane's operational
// counters — the /status surface of the collector.
type RobustMetrics struct {
	// Periods is the number of PollSnapshots rounds so far.
	Periods uint64 `json:"periods"`
	// Requests counts flow-stats requests sent, including retries.
	Requests uint64 `json:"requests"`
	// Retries counts re-sent requests after a per-request failure.
	Retries uint64 `json:"retries"`
	// Failures counts polls that exhausted every attempt.
	Failures uint64 `json:"failures"`
	// Timeouts counts individual requests that hit their deadline.
	Timeouts uint64 `json:"timeouts"`
	// Probes counts reinstatement probes sent to quarantined switches.
	Probes uint64 `json:"probes"`
	// Quarantines counts transitions into quarantine.
	Quarantines uint64 `json:"quarantines"`
	// Reinstatements counts successful probe recoveries.
	Reinstatements uint64 `json:"reinstatements"`
	// LastElapsed is the wall-clock duration of the latest round.
	LastElapsed time.Duration `json:"lastElapsedNs"`
}

// switchSlot is everything the collector keeps for one switch, built
// once in NewRobustFromStats and reused round after round: its place in
// the health state machine, this round's assignment and raw outcome, and
// the storage of its snapshot.
type switchSlot struct {
	sw     topo.SwitchID
	client StatsClient
	// run is rc.fetch(slot), built once so that `go slot.run()` allocates
	// nothing.
	run func()

	// Health state machine; guarded by rc.mu.
	health     SwitchHealth
	fails      int // consecutive failed polls
	sinceProbe int // periods spent waiting in quarantine

	// This round's assignment, set by planLocked and read-only while the
	// fetch goroutines run.
	due     bool // considered this round (PollSnapshots' due subset)
	planned bool // contacted this round
	probe   bool // quarantined: echo first, poll only if it succeeds

	// out is this round's raw outcome, written by the slot's own fetch
	// goroutine and read once the round's WaitGroup has been waited on.
	out pollOutcome

	// This round's disposition, set by absorbLocked for due slots.
	disp       switchDisposition
	reinstated bool
	// snap is the switch's cumulative snapshot (dispOK only), cleared
	// and refilled every round: the map SnapshotResult.Snapshots lends.
	snap map[int]uint64
}

// RobustCollector is a production-grade statistics fetch plane: every
// switch is polled concurrently under a per-request deadline with
// bounded exponential-backoff retries, and a per-switch health state
// machine quarantines flapping switches (with periodic reinstatement
// probes) so they cannot stall a detection window. It hands back raw
// cumulative snapshots (PollSnapshots); turning them into per-window
// deltas, and finding counter resets and shadowed rules on the way, is
// the WindowAssembler's job.
//
// Safe for concurrent use. PollSnapshots rounds are serialized by
// roundMu: a period's state transitions must observe the previous
// period's, and the per-switch slots are reused from round to round.
// The collector owns no goroutine between rounds, so it needs no Close.
type RobustCollector struct {
	cfg RobustConfig

	// roundMu is held for a whole round. It guards the round-scoped
	// fields below, which are written before the round's fetch
	// goroutines start and only read while they run.
	roundMu   sync.Mutex
	roundCtx  context.Context // the round caller's context: probes, retries and backoff waits derive from it
	firstCtx  context.Context // roundCtx under one Deadline, shared by every first attempt
	period    uint64
	wg        sync.WaitGroup
	plans     []*switchSlot
	snapshots map[topo.SwitchID]map[int]uint64 // SnapshotResult.Snapshots, reused

	mu       sync.Mutex
	slots    []*switchSlot // ascending switch ID
	bySwitch map[topo.SwitchID]*switchSlot
	metrics  RobustMetrics
	tel      *telemetry.CollectorMetrics // nil unless SetTelemetry wired a metric set

	sleep func(time.Duration) // test hook; nil = time.Sleep
	now   func() time.Time    // test hook; nil = time.Now
}

// SetTelemetry mirrors the collector's operational counters into a
// telemetry metric set (pass nil to detach). The snapshot-style
// RobustMetrics API is unaffected; telemetry sees the same counts as
// monotonic families plus poll-latency and health gauges.
func (rc *RobustCollector) SetTelemetry(m *telemetry.CollectorMetrics) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.tel = m
}

// NewRobust builds a fault-tolerant collector over per-switch control
// clients.
func NewRobust(clients map[topo.SwitchID]*openflow.Client, cfg RobustConfig) *RobustCollector {
	generic := make(map[topo.SwitchID]StatsClient, len(clients))
	for sw, c := range clients {
		generic[sw] = c
	}
	return NewRobustFromStats(generic, cfg)
}

// NewRobustFromStats is NewRobust over any StatsClient implementation.
func NewRobustFromStats(clients map[topo.SwitchID]StatsClient, cfg RobustConfig) *RobustCollector {
	rc := &RobustCollector{
		cfg:       cfg.withDefaults(),
		snapshots: make(map[topo.SwitchID]map[int]uint64, len(clients)),
		bySwitch:  make(map[topo.SwitchID]*switchSlot, len(clients)),
	}
	order := make([]topo.SwitchID, 0, len(clients))
	for sw := range clients {
		order = append(order, sw)
	}
	slices.Sort(order)
	for _, sw := range order {
		s := &switchSlot{sw: sw, client: clients[sw], snap: make(map[int]uint64)}
		s.run = func() { rc.fetch(s) }
		rc.slots = append(rc.slots, s)
		rc.bySwitch[sw] = s
	}
	return rc
}

// Metrics returns a snapshot of the collection counters.
func (rc *RobustCollector) Metrics() RobustMetrics {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.metrics
}

// Health returns every switch's current availability state.
func (rc *RobustCollector) Health() map[topo.SwitchID]SwitchHealth {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make(map[topo.SwitchID]SwitchHealth, len(rc.slots))
	for _, s := range rc.slots {
		out[s.sw] = s.health
	}
	return out
}

// Quarantined returns the sorted set of quarantined switches.
func (rc *RobustCollector) Quarantined() []topo.SwitchID {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var out []topo.SwitchID
	for _, s := range rc.slots {
		if s.health == Quarantined {
			out = append(out, s.sw)
		}
	}
	return out
}

// pollOutcome is one switch's raw result from the concurrent phase.
type pollOutcome struct {
	reply    *openflow.FlowStatsReply
	err      error
	requests uint64
	retries  uint64
	timeouts uint64
	probed   bool
	probeOK  bool
}

// planLocked selects the switches to contact this period, advancing
// quarantine probe cadence. due restricts the plan to a subset (nil =
// every switch; unknown switches are ignored); switches outside due are
// untouched — no health transition, no probe-cadence tick. Caller holds
// rc.roundMu and rc.mu.
func (rc *RobustCollector) planLocked(due []topo.SwitchID) {
	for _, s := range rc.slots {
		s.due = due == nil
	}
	for _, sw := range due {
		if s, ok := rc.bySwitch[sw]; ok {
			s.due = true
		}
	}
	rc.plans = rc.plans[:0]
	for _, s := range rc.slots {
		s.planned, s.probe = false, false
		if !s.due {
			continue
		}
		if s.health == Quarantined {
			s.sinceProbe++
			if s.sinceProbe < rc.cfg.ProbeEvery {
				continue
			}
			s.sinceProbe = 0
			s.probe = true
		}
		s.planned = true
		rc.plans = append(rc.plans, s)
	}
}

// ctxSleep waits d before a retry, returning early (false) when ctx is
// cancelled — a Serve shutdown must not be delayed by an in-flight
// backoff wait. hook substitutes the wait in tests.
func ctxSleep(ctx context.Context, d time.Duration, hook func(time.Duration)) bool {
	if hook != nil {
		hook(d)
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// fetchRound plans one round over the due switches (nil = all) and runs
// its concurrent phase: every planned switch is probed/polled under
// per-request deadlines with bounded retries, each on its own goroutine,
// and all of them have finished when it returns — the outcomes sit in
// the slots. Caller holds rc.roundMu.
//
// Every first attempt shares one deadline context: they start within
// microseconds of each other, so one timer serves them all. A retry
// starts later and a probed switch's poll follows its probe, so those
// (and the probes) each get a full Deadline of their own.
func (rc *RobustCollector) fetchRound(ctx context.Context, due []topo.SwitchID) (start time.Time, err error) {
	rc.mu.Lock()
	if len(rc.slots) == 0 {
		rc.mu.Unlock()
		return start, errors.New("collector: no switches to poll")
	}
	rc.metrics.Periods++
	rc.period = rc.metrics.Periods
	rc.planLocked(due)
	rc.mu.Unlock()

	start = rc.clock()
	first, cancel := context.WithTimeout(ctx, rc.cfg.Deadline)
	rc.roundCtx, rc.firstCtx = ctx, first
	rc.wg.Add(len(rc.plans))
	for _, s := range rc.plans {
		go s.run()
	}
	rc.wg.Wait()
	cancel()
	rc.roundCtx, rc.firstCtx = nil, nil
	if err := ctx.Err(); err != nil {
		return start, fmt.Errorf("collector: poll cancelled: %w", err)
	}
	return start, nil
}

// fetch is one planned switch's share of the concurrent phase. Backoff
// waits between retries abort promptly on cancellation of the round.
func (rc *RobustCollector) fetch(s *switchSlot) {
	defer rc.wg.Done()
	cfg, ctx := rc.cfg, rc.roundCtx
	o := &s.out
	*o = pollOutcome{probed: s.probe}
	if s.probe {
		probeCtx, cancel := context.WithTimeout(ctx, cfg.Deadline)
		err := s.client.EchoContext(probeCtx)
		cancel()
		if err != nil {
			o.err = err
			if errors.Is(err, context.DeadlineExceeded) {
				o.timeouts++
			}
			return
		}
		o.probeOK = true
	}
	// The jitter source exists only once a retry draws from it: seeding
	// one costs ~5 KiB. Per switch and period, so deterministic under
	// the seed and race-free without locking the collector.
	var rng *rand.Rand
	for attempt := 0; attempt < cfg.Attempts; attempt++ {
		if attempt > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(cfg.Seed ^ int64(s.sw)<<16 ^ int64(rc.period)))
			}
			if !ctxSleep(ctx, backoff(cfg, attempt-1, rng), rc.sleep) {
				o.err = ctx.Err()
				break // cancelled mid-backoff; stop retrying
			}
			o.retries++
		}
		reqCtx, cancel := rc.firstCtx, context.CancelFunc(nil)
		if attempt > 0 || s.probe {
			reqCtx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		}
		reply, err := s.client.FlowStatsContext(reqCtx)
		if cancel != nil {
			cancel()
		}
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
}

// switchDisposition classifies one switch's round outcome after health
// bookkeeping.
type switchDisposition int

const (
	// dispSkipped: quarantined and not due for a probe — no contact was
	// attempted, so there is no new baseline gap.
	dispSkipped switchDisposition = iota
	// dispFailed: the probe or poll failed; the switch's delta baseline
	// now has a gap (SnapshotResult.Failed).
	dispFailed
	// dispOK: a usable cumulative counter snapshot arrived.
	dispOK
)

// absorbLocked folds the round's fetch outcomes into the health state
// machine and operational metrics, in ascending switch order, leaving
// each due slot's disposition and — for dispOK — its cumulative
// snapshot in the slot. Caller holds rc.roundMu and rc.mu.
func (rc *RobustCollector) absorbLocked() {
	for _, s := range rc.slots {
		if !s.due {
			continue
		}
		s.disp, s.reinstated = rc.absorbSlotLocked(s)
		// The reply has been copied into the snapshot (or there is
		// none): its storage goes back to the client for the next round.
		if r := s.out.reply; r != nil {
			r.Release()
			s.out.reply = nil
		}
	}
}

func (rc *RobustCollector) absorbSlotLocked(s *switchSlot) (disp switchDisposition, reinstated bool) {
	if !s.planned {
		// Quarantined and not due for a probe this period.
		return dispSkipped, false
	}
	o := &s.out
	rc.metrics.Requests += o.requests
	rc.metrics.Retries += o.retries
	rc.metrics.Timeouts += o.timeouts
	if o.probed {
		rc.metrics.Probes++
		if !o.probeOK {
			// Probe failed; stay quarantined, wait out another window.
			return dispFailed, false
		}
	}
	if o.err != nil {
		// Poll exhausted its attempts (or the probe succeeded but the
		// full poll did not). The switch's baseline is now stale — a
		// delta across the gap would span several periods of traffic
		// and read as a false anomaly — so the consumer must Forget it
		// and re-prime on the next successful poll.
		rc.metrics.Failures++
		s.fails++
		if s.health == Quarantined {
			// Probe passed but the poll failed: not reinstated.
			return dispFailed, false
		}
		if s.fails >= rc.cfg.QuarantineAfter {
			s.health = Quarantined
			s.sinceProbe = 0
			rc.metrics.Quarantines++
		} else {
			s.health = Degraded
		}
		return dispFailed, false
	}
	if s.health == Quarantined {
		s.health = Degraded
		rc.metrics.Reinstatements++
		reinstated = true
	} else {
		s.health = Healthy
	}
	s.fails = 0
	clear(s.snap)
	for _, st := range o.reply.Stats {
		s.snap[st.RuleID] = st.Packets
	}
	return dispOK, reinstated
}

// quarantinedLocked counts quarantined switches. Caller holds rc.mu.
func (rc *RobustCollector) quarantinedLocked() int {
	n := 0
	for _, s := range rc.slots {
		if s.health == Quarantined {
			n++
		}
	}
	return n
}

func (rc *RobustCollector) clock() time.Time {
	if rc.now != nil {
		return rc.now()
	}
	return time.Now()
}

// finishRoundLocked closes a round's books: its elapsed time, and the
// round's metric movement (rc.metrics against prev, its value before the
// absorb) mirrored into telemetry. Caller holds rc.mu.
func (rc *RobustCollector) finishRoundLocked(prev RobustMetrics, start time.Time, missing int) time.Duration {
	elapsed := rc.clock().Sub(start)
	rc.metrics.LastElapsed = elapsed
	if tel := rc.tel; tel != nil {
		cur := rc.metrics
		tel.PollSeconds.Observe(elapsed.Seconds())
		tel.Requests.Add(cur.Requests - prev.Requests)
		tel.Retries.Add(cur.Retries - prev.Retries)
		tel.Timeouts.Add(cur.Timeouts - prev.Timeouts)
		tel.Failures.Add(cur.Failures - prev.Failures)
		tel.Probes.Add(cur.Probes - prev.Probes)
		tel.Quarantines.Add(cur.Quarantines - prev.Quarantines)
		tel.Reinstatements.Add(cur.Reinstatements - prev.Reinstatements)
		tel.MissingSwitches.Set(float64(missing))
		tel.QuarantinedSwitches.Set(float64(rc.quarantinedLocked()))
	}
	return elapsed
}

// SnapshotResult is one streaming fetch round's raw outcome: cumulative
// counter snapshots for the switches that answered, with the delta /
// epoch layer left to the WindowAssembler that consumes them.
type SnapshotResult struct {
	// Snapshots holds each answering switch's cumulative rule counters.
	// The maps — outer and inner — belong to the collector, which
	// refills them in place: they are valid, and unchanging, until the
	// next PollSnapshots call on it starts. Push them
	// (WindowAssembler.Push copies) and read what you need before
	// polling again; copy whatever must outlive that.
	Snapshots map[topo.SwitchID]map[int]uint64
	// Failed lists (sorted) switches whose probe or poll failed this
	// round: their delta baseline now has a gap, so the assembler must
	// Forget them before their next push.
	Failed []topo.SwitchID
	// Skipped lists (sorted) quarantined switches that were not due for
	// a probe: no contact was attempted and no new gap opened.
	Skipped []topo.SwitchID
	// Reinstated lists switches brought back from quarantine this round.
	Reinstated []topo.SwitchID
	// Elapsed is the wall-clock duration of the round.
	Elapsed time.Duration
}

// PollSnapshots runs one fault-tolerant fetch round restricted to the
// due switches (nil = all) and returns raw cumulative snapshots — the
// pump half of the one window-producing path (pump → WindowAssembler →
// System.Serve). Every planned switch gets the full health machinery:
// per-request deadlines, retries with context-aware backoff, quarantine
// and reinstatement probes. The delta/epoch layer is the assembler's.
// It errors only when the context is cancelled or the collector has no
// switches; per-switch failures are reported in the result. Switches
// outside due are
// left untouched: no health transition and no probe-cadence tick, so an
// adaptive sampler backing off a switch does not distort its health.
func (rc *RobustCollector) PollSnapshots(ctx context.Context, due []topo.SwitchID) (SnapshotResult, error) {
	rc.roundMu.Lock()
	defer rc.roundMu.Unlock()
	clear(rc.snapshots) // the previous round's loan ends here
	start, err := rc.fetchRound(ctx, due)
	if err != nil {
		return SnapshotResult{}, err
	}

	rc.mu.Lock()
	defer rc.mu.Unlock()
	prev := rc.metrics
	rc.absorbLocked()
	res := SnapshotResult{Snapshots: rc.snapshots}
	for _, s := range rc.slots {
		if !s.due {
			continue
		}
		switch s.disp {
		case dispSkipped:
			res.Skipped = append(res.Skipped, s.sw)
		case dispFailed:
			res.Failed = append(res.Failed, s.sw)
		case dispOK:
			if s.reinstated {
				res.Reinstated = append(res.Reinstated, s.sw)
			}
			res.Snapshots[s.sw] = s.snap
		}
	}
	res.Elapsed = rc.finishRoundLocked(prev, start, len(res.Failed)+len(res.Skipped))
	return res, nil
}

// backoff computes the delay before retry number attempt (0-based),
// exponential from BackoffBase, capped at BackoffMax, spread by
// ±JitterFrac.
func backoff(cfg RobustConfig, attempt int, rng *rand.Rand) time.Duration {
	d := cfg.BackoffBase
	for i := 0; i < attempt && d < cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > cfg.BackoffMax {
		d = cfg.BackoffMax
	}
	if cfg.JitterFrac > 0 {
		d = time.Duration(float64(d) * (1 + cfg.JitterFrac*(2*rng.Float64()-1)))
	}
	return d
}
