package experiment

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"foces"
	"foces/internal/collector"
	"foces/internal/topo"
)

// StreamBenchConfig drives the streaming-ingestion experiment: an
// equivalence check (streaming windows vs the pull-based Run path on
// identical delta sequences), a lock-step ingest-to-verdict latency
// measurement, and a saturating load phase that pushes synthetic
// counter updates through the bounded-queue assembler as fast as the
// machine allows.
type StreamBenchConfig struct {
	// Topology is a topo.ByName name; zero selects "fattree8".
	Topology string
	// Flows restricts PairExact rules to the first k ordered host pairs;
	// zero selects min(960, all pairs).
	Flows int
	// LoadMillis is the saturating load phase's duration; zero selects
	// 1000 ms.
	LoadMillis int
	// Pushers is the number of concurrent pusher goroutines in the load
	// phase; zero selects GOMAXPROCS.
	Pushers int
	// QueueCapacity bounds each switch's pending-snapshot queue in the
	// load phase; zero selects the assembler default (64).
	QueueCapacity int
	// LatencyWindows is how many windows the lock-step latency phase
	// measures; zero selects 48.
	LatencyWindows int
	// CheckWindows is how many windows the equivalence check replays
	// through both paths; zero selects 12.
	CheckWindows int
	// Seed drives traffic randomness.
	Seed int64
}

func (c StreamBenchConfig) withDefaults() StreamBenchConfig {
	if c.Topology == "" {
		c.Topology = "fattree8"
	}
	if c.LoadMillis <= 0 {
		c.LoadMillis = 1000
	}
	if c.Pushers <= 0 {
		c.Pushers = runtime.GOMAXPROCS(0)
	}
	if c.LatencyWindows <= 0 {
		c.LatencyWindows = 48
	}
	if c.CheckWindows <= 0 {
		c.CheckWindows = 12
	}
	return c
}

// StreamBenchResult reports the streaming experiment
// (results/stream.json).
type StreamBenchResult struct {
	Topology   string `json:"topology"`
	Switches   int    `json:"switches"`
	Flows      int    `json:"flows"`
	Rules      int    `json:"rules"`
	GoMaxProcs int    `json:"gomaxprocs"`

	// Equivalence: streaming windows vs pull-based Run on identical
	// delta sequences (clean, attacked, silent switch, counter reset).
	CheckWindows   int    `json:"checkWindows"`
	CheckedReports int    `json:"checkedReports"`
	VerdictsMatch  bool   `json:"verdictsMatch"`
	Mismatch       string `json:"mismatch,omitempty"`

	// Lock-step ingest-to-verdict latency over real traffic windows.
	DetectWindows int     `json:"detectWindows"`
	P50LatencyMs  float64 `json:"p50LatencyMs"`
	P99LatencyMs  float64 `json:"p99LatencyMs"`
	MaxLatencyMs  float64 `json:"maxLatencyMs"`

	// Saturating synthetic load through the bounded-queue assembler.
	LoadSecs           float64 `json:"loadSecs"`
	LoadPushes         uint64  `json:"loadPushes"`
	LoadUpdates        uint64  `json:"loadUpdates"`
	UpdatesPerSec      float64 `json:"updatesPerSec"`
	LoadWindows        uint64  `json:"loadWindows"`
	CoalescedSnapshots uint64  `json:"coalescedSnapshots"`
	DroppedWindows     uint64  `json:"droppedWindows"`
	MaxQueueDepth      int     `json:"maxQueueDepth"`
	QueueBound         int     `json:"queueBound"`
	QueueBounded       bool    `json:"queueBounded"`
}

// StreamBench measures the streaming ingestion layer on one
// environment: verdict equivalence against the polled path, the
// ingest-to-verdict latency tail, and sustained synthetic update
// throughput under bounded queues.
func StreamBench(cfg StreamBenchConfig) (StreamBenchResult, error) {
	cfg = cfg.withDefaults()
	t, err := topo.ByName(cfg.Topology)
	if err != nil {
		return StreamBenchResult{}, err
	}
	flows := cfg.Flows
	maxPairs := t.NumHosts() * (t.NumHosts() - 1)
	if flows == 0 {
		flows = 960
		if flows > maxPairs {
			flows = maxPairs
		}
	}
	pairs, err := PairSubset(t, flows)
	if err != nil {
		return StreamBenchResult{}, err
	}
	// Skew/noise act on the dense Y vector inside Observe; both streaming
	// arms here feed raw cumulative snapshots, so disable them to keep
	// the replayed sequences identical bit for bit.
	env, err := NewEnvOn(Config{Topology: cfg.Topology, Seed: cfg.Seed, SkewSigma: -1}, t, pairs)
	if err != nil {
		return StreamBenchResult{}, err
	}
	switches := make([]topo.SwitchID, 0, len(t.Switches()))
	for _, sw := range t.Switches() {
		switches = append(switches, sw.ID)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })

	res := StreamBenchResult{
		Topology:   cfg.Topology,
		Switches:   len(switches),
		Flows:      flows,
		Rules:      env.FCM.NumRules(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if err := streamCheck(cfg, env, switches, &res); err != nil {
		return res, err
	}
	if err := streamLatency(cfg, env, switches, &res); err != nil {
		return res, err
	}
	if err := streamLoad(cfg, env, switches, &res); err != nil {
		return res, err
	}
	return res, nil
}

// collectPerSwitch runs one cumulative traffic interval and returns the
// per-switch counter snapshots (fresh maps; counters are NOT reset, as
// on a real switch).
func collectPerSwitch(env *Env, switches []topo.SwitchID) (map[topo.SwitchID]map[int]uint64, error) {
	if _, err := env.Net.Run(env.Rng, env.traffic); err != nil {
		return nil, err
	}
	cumulative := env.Net.CollectCounters()
	per := make(map[topo.SwitchID]map[int]uint64, len(switches))
	for _, sw := range switches {
		per[sw] = make(map[int]uint64)
	}
	for rid, v := range cumulative {
		per[env.ruleSwitch[rid]][rid] = v
	}
	return per, nil
}

// normalizeReport strips wall-time fields and encodes the Report so
// two Reports produced by different code paths can be compared byte
// for byte. Gob rather than JSON: anomaly indices can be +Inf (zero
// median), which JSON cannot represent, and the Report's nested
// results hold only slices and scalars, so gob encoding is
// deterministic.
func normalizeReport(rep foces.Report) ([]byte, error) {
	rep.Timings = foces.RunTimings{}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// streamCheck replays one cumulative snapshot sequence — clean windows,
// an attacked stretch, a silent switch, a counter reset — through the
// pull-based delta+Run path and through WindowAssembler+Serve, and
// verifies the emitted Reports are byte-identical.
func streamCheck(cfg StreamBenchConfig, env *Env, switches []topo.SwitchID, res *StreamBenchResult) error {
	sys, err := env.System()
	if err != nil {
		return err
	}
	res.CheckWindows = cfg.CheckWindows
	attackAt := cfg.CheckWindows / 2
	silentAt := cfg.CheckWindows / 3
	resetAt := 3 * cfg.CheckWindows / 4
	silent := switches[len(switches)/2]
	resetSw := switches[len(switches)/3]

	// Generate the shared snapshot sequence once; both arms replay it.
	if err := env.Net.SetLinkLoss(0.02); err != nil {
		return err
	}
	seq := make([]map[topo.SwitchID]map[int]uint64, cfg.CheckWindows)
	var applied bool
	for w := 0; w < cfg.CheckWindows; w++ {
		if w == attackAt && !applied {
			if _, err := env.ApplyRandomAttacks(1); err != nil {
				return err
			}
			applied = true
		}
		if w == resetAt {
			if err := env.ResetSwitch(resetSw); err != nil {
				return err
			}
		}
		per, err := collectPerSwitch(env, switches)
		if err != nil {
			return err
		}
		seq[w] = per
	}

	// Polled arm: one DeltaTracker advanced per switch in ascending
	// order, merged exactly as RobustCollector.Poll merges, one Run per
	// non-empty window.
	tracker := collector.NewDeltaTracker()
	tracker.SetEpoch(sys.Epoch())
	var polled [][]byte
	for w := 0; w < cfg.CheckWindows; w++ {
		deltas := make(map[int]uint64)
		var missing []topo.SwitchID
		for _, sw := range switches {
			if w == silentAt && sw == silent {
				tracker.Forget(sw)
				missing = append(missing, sw)
				continue
			}
			delta, reset, primed, _, _ := tracker.AdvanceEpoch(sw, seq[w][sw])
			if reset || !primed {
				missing = append(missing, sw)
				continue
			}
			for rid, v := range delta {
				deltas[rid] = v
			}
		}
		if len(deltas) == 0 {
			continue
		}
		if len(missing) == 0 {
			missing = nil
		}
		rep, err := sys.Run(foces.Observation{Counters: deltas, RunOptions: foces.RunOptions{Missing: missing, Epoch: sys.Epoch()}})
		if err != nil {
			return err
		}
		blob, err := normalizeReport(rep)
		if err != nil {
			return err
		}
		polled = append(polled, blob)
	}

	// Streaming arm: the same snapshots pushed through the assembler,
	// verdicts emitted by Serve.
	asm := collector.NewWindowAssembler(switches, collector.StreamConfig{WindowBuffer: cfg.CheckWindows + 2})
	asm.SetEpoch(sys.Epoch())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reports, err := sys.Serve(ctx, foces.StreamConfig{Windows: asm.Windows(), Buffer: cfg.CheckWindows + 2})
	if err != nil {
		return err
	}
	pushErr := make(chan error, 1)
	go func() {
		for w := 0; w < cfg.CheckWindows; w++ {
			for _, sw := range switches {
				if w == silentAt && sw == silent {
					asm.Forget(sw)
					asm.MarkMissing(sw)
					continue
				}
				if err := asm.Push(collector.Update{Switch: sw, Counters: seq[w][sw]}); err != nil {
					pushErr <- err
					return
				}
			}
		}
		asm.Close()
		pushErr <- nil
	}()
	var streamed [][]byte
	for sr := range reports {
		if sr.Err != nil {
			return fmt.Errorf("stream window %d: %w", sr.Window, sr.Err)
		}
		blob, err := normalizeReport(sr.Report)
		if err != nil {
			return err
		}
		streamed = append(streamed, blob)
	}
	if err := <-pushErr; err != nil {
		return err
	}

	res.CheckedReports = len(streamed)
	res.VerdictsMatch = true
	if len(polled) != len(streamed) {
		res.VerdictsMatch = false
		res.Mismatch = fmt.Sprintf("report count: polled %d vs streamed %d", len(polled), len(streamed))
		return nil
	}
	for i := range polled {
		if !bytes.Equal(polled[i], streamed[i]) {
			res.VerdictsMatch = false
			res.Mismatch = fmt.Sprintf("report %d diverged between the polled and streamed paths", i)
			return nil
		}
	}
	return nil
}

// streamLatency measures ingest-to-verdict latency in lock step: push
// one real traffic window's snapshots, wait for its verdict, record the
// wall time from first push to report.
func streamLatency(cfg StreamBenchConfig, env *Env, switches []topo.SwitchID, res *StreamBenchResult) error {
	sys, err := env.System()
	if err != nil {
		return err
	}
	if err := env.Net.SetLinkLoss(0.02); err != nil {
		return err
	}
	asm := collector.NewWindowAssembler(switches, collector.StreamConfig{})
	asm.SetEpoch(sys.Epoch())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reports, err := sys.Serve(ctx, foces.StreamConfig{Windows: asm.Windows()})
	if err != nil {
		return err
	}
	var latencies []time.Duration
	// Window 0 primes baselines (no verdict); each subsequent window
	// yields exactly one report.
	for w := 0; w <= cfg.LatencyWindows; w++ {
		per, err := collectPerSwitch(env, switches)
		if err != nil {
			return err
		}
		for _, sw := range switches {
			if err := asm.Push(collector.Update{Switch: sw, Counters: per[sw]}); err != nil {
				return err
			}
		}
		if w == 0 {
			continue
		}
		sr, ok := <-reports
		if !ok {
			return fmt.Errorf("report channel closed at window %d", w)
		}
		if sr.Err != nil {
			return fmt.Errorf("latency window %d: %w", sr.Window, sr.Err)
		}
		latencies = append(latencies, sr.Latency)
	}
	asm.Close()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.DetectWindows = len(latencies)
	if n := len(latencies); n > 0 {
		res.P50LatencyMs = float64(latencies[n/2].Microseconds()) / 1000
		res.P99LatencyMs = float64(latencies[int(0.99*float64(n-1))].Microseconds()) / 1000
		res.MaxLatencyMs = float64(latencies[n-1].Microseconds()) / 1000
	}
	return nil
}

// streamLoad saturates the assembler with synthetic cumulative counter
// updates from concurrent pushers and measures sustained ingestion
// throughput with bounded queues; a consumer drains completed windows
// (the bench discards them — detection throughput is the latency
// phase's concern, ingestion throughput is this one's).
func streamLoad(cfg StreamBenchConfig, env *Env, switches []topo.SwitchID, res *StreamBenchResult) error {
	rulesBySwitch := make(map[topo.SwitchID][]int, len(switches))
	for rid, sw := range env.ruleSwitch {
		rulesBySwitch[sw] = append(rulesBySwitch[sw], rid)
	}
	qcap := cfg.QueueCapacity
	if qcap <= 0 {
		qcap = 64
	}
	asm := collector.NewWindowAssembler(switches, collector.StreamConfig{QueueCapacity: qcap, WindowBuffer: 64})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range asm.Windows() {
		}
	}()

	shards := make([][]topo.SwitchID, cfg.Pushers)
	for i, sw := range switches {
		shards[i%cfg.Pushers] = append(shards[i%cfg.Pushers], sw)
	}
	duration := time.Duration(cfg.LoadMillis) * time.Millisecond
	start := time.Now()
	deadline := start.Add(duration)
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Pushers)
	for _, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard []topo.SwitchID) {
			defer wg.Done()
			for round := uint64(1); time.Now().Before(deadline); round++ {
				for _, sw := range shard {
					rules := rulesBySwitch[sw]
					counters := make(map[int]uint64, len(rules))
					for _, rid := range rules {
						counters[rid] = round * (uint64(rid)%17 + 1)
					}
					if err := asm.Push(collector.Update{Switch: sw, Counters: counters}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(shard)
	}
	wg.Wait()
	elapsed := time.Since(start)
	asm.Close()
	<-drained
	select {
	case err := <-errs:
		return err
	default:
	}

	st := asm.Stats()
	res.LoadSecs = elapsed.Seconds()
	res.LoadPushes = st.Pushes
	res.LoadUpdates = st.Updates
	if elapsed > 0 {
		res.UpdatesPerSec = float64(st.Updates) / elapsed.Seconds()
	}
	res.LoadWindows = st.Windows
	res.CoalescedSnapshots = st.Coalesced
	res.DroppedWindows = st.DroppedWindows
	res.MaxQueueDepth = st.MaxQueueDepth
	res.QueueBound = len(switches) * qcap
	res.QueueBounded = st.MaxQueueDepth <= res.QueueBound
	return nil
}
