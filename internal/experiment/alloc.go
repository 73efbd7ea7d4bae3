package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"foces"
	"foces/internal/collector"
	"foces/internal/topo"
)

// AllocBenchConfig drives the steady-state allocation experiment: a
// replayed stream load that measures allocations per window and the
// GC's share of wall time once the window pools and scratch arrays are
// warm. That pooled streamed reports equal DeltaTracker + Run under
// attack, silence, reset and rule churn is a unit test's job
// (TestServeMatchesPolledRun).
type AllocBenchConfig struct {
	// Topology is a topo.ByName name; zero selects "fattree8".
	Topology string
	// Flows restricts PairExact rules to the first k ordered host pairs;
	// zero selects min(960, all pairs).
	Flows int
	// WarmupWindows run before measurement starts so pools, stamp
	// arrays and channel buffers reach steady state; zero selects 8.
	WarmupWindows int
	// MeasureWindows is the measured steady-state span; zero selects 48.
	MeasureWindows int
	// AllocBudget is the allocs-per-window gate ceiling; zero selects
	// DefaultAllocBudget.
	AllocBudget float64
	// Seed drives traffic randomness.
	Seed int64
}

// DefaultAllocBudget is the steady-state allocations-per-window
// ceiling. A window through the pooled pipeline costs a bounded
// handful of allocations (the report's result pointers, the sliced
// stage's per-window result set) independent of rule count; the
// map-shaped path it replaced cost O(rules) per window (one delta map
// plus per-entry churn, ~10^4 on fattree8). The ceiling sits well
// above the pooled cost and far below the map cost, so it trips on a
// real regression, not on noise.
const DefaultAllocBudget = 2048

func (c AllocBenchConfig) withDefaults() AllocBenchConfig {
	if c.Topology == "" {
		c.Topology = "fattree8"
	}
	if c.WarmupWindows <= 0 {
		c.WarmupWindows = 8
	}
	if c.MeasureWindows <= 0 {
		c.MeasureWindows = 48
	}
	if c.AllocBudget <= 0 {
		c.AllocBudget = DefaultAllocBudget
	}
	return c
}

// AllocBenchResult reports the allocation experiment
// (results/alloc.json).
type AllocBenchResult struct {
	Topology   string `json:"topology"`
	Switches   int    `json:"switches"`
	Flows      int    `json:"flows"`
	Rules      int    `json:"rules"`
	GoMaxProcs int    `json:"gomaxprocs"`

	// Steady-state allocation profile over the measured span.
	WarmupWindows   int     `json:"warmupWindows"`
	MeasuredWindows int     `json:"measuredWindows"`
	AllocsPerWindow float64 `json:"allocsPerWindow"`
	BytesPerWindow  float64 `json:"bytesPerWindow"`
	AllocBudget     float64 `json:"allocBudget"`
	WithinBudget    bool    `json:"withinBudget"`

	// GC pressure and the ingest-to-verdict latency tail over the same
	// measured span.
	ElapsedSecs  float64 `json:"elapsedSecs"`
	GCPauseMs    float64 `json:"gcPauseMs"`
	GCCycles     uint32  `json:"gcCycles"`
	GCPauseShare float64 `json:"gcPauseShare"`
	P50LatencyMs float64 `json:"p50LatencyMs"`
	P99LatencyMs float64 `json:"p99LatencyMs"`
	MaxLatencyMs float64 `json:"maxLatencyMs"`
}

// AllocBench measures the allocation behaviour of the streaming
// detection pipeline: allocations per window and GC pause share over a
// warm replayed stream load.
func AllocBench(cfg AllocBenchConfig) (AllocBenchResult, error) {
	cfg = cfg.withDefaults()
	t, err := topo.ByName(cfg.Topology)
	if err != nil {
		return AllocBenchResult{}, err
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
		return AllocBenchResult{}, err
	}
	// The replayed load consumes raw cumulative snapshots; skew/noise act
	// only on Observe's dense vector, so disable them.
	env, err := NewEnvOn(Config{Topology: cfg.Topology, Seed: cfg.Seed, SkewSigma: -1}, t, pairs)
	if err != nil {
		return AllocBenchResult{}, err
	}
	switches := make([]topo.SwitchID, 0, len(t.Switches()))
	for _, sw := range t.Switches() {
		switches = append(switches, sw.ID)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })

	res := AllocBenchResult{
		Topology:    cfg.Topology,
		Switches:    len(switches),
		Flows:       flows,
		Rules:       env.FCM.NumRules(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		AllocBudget: cfg.AllocBudget,
	}
	if err := allocMeasure(cfg, env, switches, &res); err != nil {
		return res, err
	}
	return res, nil
}

// allocMeasure replays a pre-generated cumulative snapshot sequence
// lock-step through WindowAssembler+Serve and measures the pipeline's
// own steady-state cost: snapshots are generated up front so traffic
// simulation never pollutes the measured span, warmup windows let the
// window pool, stamp arrays, vector free lists and channel buffers
// reach their high-water marks, and the measured span then reads
// allocations, bytes and GC pause time straight from MemStats deltas.
func allocMeasure(cfg AllocBenchConfig, env *Env, switches []topo.SwitchID, res *AllocBenchResult) error {
	sys, err := env.System()
	if err != nil {
		return err
	}
	if err := env.Net.SetLinkLoss(0.02); err != nil {
		return err
	}
	total := 1 + cfg.WarmupWindows + cfg.MeasureWindows
	seq := make([]map[topo.SwitchID]map[int]uint64, total)
	for w := 0; w < total; w++ {
		per, err := collectPerSwitch(env, switches)
		if err != nil {
			return err
		}
		seq[w] = per
	}

	asm := collector.NewWindowAssembler(switches, collector.StreamConfig{
		WindowBuffer: 2,
		RuleSpace:    env.FCM.NumRules(),
	})
	asm.SetEpoch(sys.Epoch())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reports, err := sys.Serve(ctx, foces.StreamConfig{Windows: asm.Windows(), Buffer: 2})
	if err != nil {
		return err
	}
	push := func(w int) error {
		for _, sw := range switches {
			if err := asm.Push(collector.Update{Switch: sw, Counters: seq[w][sw]}); err != nil {
				return err
			}
		}
		return nil
	}
	// Window 0 primes baselines (no verdict); warmup windows fill every
	// pool and buffer before the clock starts.
	if err := push(0); err != nil {
		return err
	}
	for w := 1; w <= cfg.WarmupWindows; w++ {
		if err := push(w); err != nil {
			return err
		}
		if sr := <-reports; sr.Err != nil {
			return fmt.Errorf("warmup window %d: %w", sr.Window, sr.Err)
		}
	}

	latencies := make([]time.Duration, 0, cfg.MeasureWindows)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for w := 1 + cfg.WarmupWindows; w < total; w++ {
		if err := push(w); err != nil {
			return err
		}
		sr := <-reports
		if sr.Err != nil {
			return fmt.Errorf("measured window %d: %w", sr.Window, sr.Err)
		}
		latencies = append(latencies, sr.Latency)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	asm.Close()
	for range reports {
	}

	n := float64(cfg.MeasureWindows)
	res.WarmupWindows = cfg.WarmupWindows
	res.MeasuredWindows = cfg.MeasureWindows
	res.AllocsPerWindow = float64(m1.Mallocs-m0.Mallocs) / n
	res.BytesPerWindow = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	res.WithinBudget = res.AllocsPerWindow <= cfg.AllocBudget
	res.ElapsedSecs = elapsed.Seconds()
	res.GCPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	res.GCCycles = m1.NumGC - m0.NumGC
	if elapsed > 0 {
		res.GCPauseShare = float64(m1.PauseTotalNs-m0.PauseTotalNs) / float64(elapsed.Nanoseconds())
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		res.P50LatencyMs = float64(latencies[n/2].Microseconds()) / 1000
		res.P99LatencyMs = float64(latencies[int(0.99*float64(n-1))].Microseconds()) / 1000
		res.MaxLatencyMs = float64(latencies[n-1].Microseconds()) / 1000
	}
	return nil
}
