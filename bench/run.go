package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"
)

// chain is one workload's system under test plus its generator.
type chain interface {
	// prime does whatever must precede the first verdict.
	prime() error
	// window runs window i and reports what it measured; a non-nil
	// meter brackets exactly the timed section.
	window(i int, meter *allocMeter) (windowRec, error)
	// setTracing switches span recording on a chain built with a
	// tracer.
	setTracing(on bool)
	// layerCounts adds the counters the layers themselves keep.
	layerCounts(m map[string]float64)
	close()
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string

	// windows, when positive, fixes the measured window count instead of
	// measuring for seconds; warmup, allocWindows and setups then shrink
	// with it and percentiles no longer insist on ten samples beyond.
	// Tests use it; the command line cannot set it.
	windows int
	small   bool // solve-ft16 on a FatTree(4) matrix
}

const (
	// minWindows is the fewest windows a timed pass measures, however
	// short -seconds is: p95 needs ten samples beyond it.
	minWindows = 220
	warmupFT8  = 50
	// churn-ft8 and solve-ft16 windows cost ~115 ms and ~60 ms; their
	// warm-up and allocation passes are shorter to keep a run near 30 s.
	// 40 is one full rotation of churn-ft8's rewritten rules (8 idle
	// pairs × 5 rules): what a window allocates depends on the rule.
	warmupSlow       = 10
	allocWindowsFT8  = 100
	allocWindowsSlow = 40
	setupsFT8        = 3
	setupsSolve      = 2
)

// result is what one run reports.
type result struct {
	workload  string
	attempted int
	failed    int
	failures  []string // first few causes
	samples   int      // windows in the timed pass
	metrics   map[string]float64
	notes     []string
	// labels holds one byte per timed window: bit 0 attacked, bit 1
	// full-engine verdict, bit 2 sliced verdict. Two runs with one seed
	// must agree on their common prefix.
	labels    []byte
	tracePath string
}

func (cfg runConfig) plan() (warmup, allocWindows, setups int) {
	slow := cfg.workload == wlChurn || cfg.workload == wlSolve
	warmup, allocWindows, setups = warmupFT8, allocWindowsFT8, setupsFT8
	if slow {
		warmup, allocWindows = warmupSlow, allocWindowsSlow
	}
	if cfg.workload == wlSolve {
		setups = setupsSolve
	}
	if cfg.windows > 0 {
		warmup, allocWindows, setups = 2, 4, 1
	}
	if cfg.trace {
		setups = 1
	}
	return warmup, allocWindows, setups
}

func (cfg runConfig) build(tr *tracer, m map[string]float64) (chain, error) {
	if cfg.workload == wlSolve {
		p := fullSolve
		if cfg.small {
			p = solveParams{k: 4, group: 4}
		}
		return newSolveChain(p, cfg.seed, tr, m)
	}
	return newFT8Chain(cfg.workload, fullFT8, cfg.seed, tr, m)
}

// runWorkload sets the workload up, warms it, measures it and checks
// it. An error is a harness failure; failed windows are in the result.
func runWorkload(cfg runConfig) (*result, error) {
	warmup, allocWindows, setups := cfg.plan()
	res := &result{workload: cfg.workload, metrics: make(map[string]float64)}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var (
		c        chain
		setupSec []float64
	)
	for s := 0; s < setups; s++ {
		if c != nil {
			c.close()
		}
		start := time.Now()
		var err error
		if c, err = cfg.build(tr, res.metrics); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSec = append(setupSec, time.Since(start).Seconds())
	}
	defer c.close()
	if err := c.prime(); err != nil {
		return nil, fmt.Errorf("priming: %w", err)
	}

	next := 0 // window index, running across the passes so the schedule does too
	pass := func(n int, until time.Time, meter *allocMeter) ([]windowRec, error) {
		var recs []windowRec
		for len(recs) < n || time.Now().Before(until) {
			rec, err := c.window(next, meter)
			if err != nil {
				return nil, err
			}
			next++
			res.attempted++
			if rec.failure != "" {
				res.failed++
				if len(res.failures) < 8 {
					res.failures = append(res.failures, fmt.Sprintf("window %d: %s", next-1, rec.failure))
				}
			}
			recs = append(recs, rec)
		}
		return recs, nil
	}

	c.setTracing(false)
	if _, err := pass(warmup, time.Time{}, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Twice: the second collection also empties what the first moved to
	// the pools' victim caches, so the reading does not depend on where
	// in its cycle the collector happened to be.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapLive := float64(mem.HeapAlloc) / (1 << 20)

	c.setTracing(cfg.trace)
	n, until := cfg.windows, time.Time{}
	if n == 0 {
		n, until = minWindows, time.Now().Add(time.Duration(cfg.seconds*float64(time.Second)))
	}
	var gcBefore, gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	timed, err := pass(n, until, nil)
	if err != nil {
		return nil, fmt.Errorf("timed pass: %w", err)
	}
	runtime.ReadMemStats(&gcAfter)
	c.setTracing(false)
	res.samples = len(timed)
	// A traced run then measures a short untraced pass, so that it can
	// say what tracing cost. It comes second so that the timed pass
	// covers the same windows, traced or not.
	var untraced []windowRec
	if cfg.trace {
		n, until := cfg.windows, time.Time{}
		if n == 0 {
			n, until = minWindows/4, time.Now().Add(time.Duration(cfg.seconds/4*float64(time.Second)))
		}
		if untraced, err = pass(n, until, nil); err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
	}
	for _, rec := range timed {
		var b byte
		if rec.attacked {
			b |= 1
		}
		if rec.fullAnom {
			b |= 2
		}
		if rec.slicedAnom {
			b |= 4
		}
		res.labels = append(res.labels, b)
	}

	q := quantiler{lenient: cfg.windows > 0}
	if !cfg.trace {
		var meter allocMeter
		if _, err := pass(allocWindows, time.Time{}, &meter); err != nil {
			return nil, fmt.Errorf("allocation pass: %w", err)
		}
		allocs, kib := meter.perSection()
		var busyMS float64
		for _, rec := range timed {
			busyMS += rec.latencyMS + rec.updateMS
		}
		latency := column(timed, func(r *windowRec) float64 { return r.latencyMS })
		res.metrics["setup_s"] = median(setupSec)
		res.metrics["verdict_latency_ms_p50"] = q.of("verdict_latency_ms_p50", latency, 50)
		res.metrics["verdict_latency_ms_p95"] = q.of("verdict_latency_ms_p95", latency, 95)
		res.metrics["windows_per_s"] = float64(len(timed)) / busyMS * 1000
		res.metrics["allocs_per_window"] = allocs
		res.metrics["alloc_kib_per_window"] = kib
		res.metrics["heap_live_mib"] = heapLive
		// p99 is printed for the reader and gated by nothing: over four
		// 1,500-window runs it moved 11%.
		if p99, err := percentile(latency, 99); err == nil {
			res.notes = append(res.notes, fmt.Sprintf("verdict_latency_ms_p99 %.4f ms (not a gated metric)", p99))
		}
	} else {
		// Every workload prints every per-layer name; a layer off its
		// path stays 0.
		for _, spec := range perLayer {
			if _, set := res.metrics[spec.Name]; !set {
				res.metrics[spec.Name] = 0
			}
		}
		layerMetrics(res, &q, timed, untraced)
		c.layerCounts(res.metrics)
		res.metrics["runtime.gc_cycles"] = float64(gcAfter.NumGC - gcBefore.NumGC)
		res.metrics["runtime.gc_pause_ms"] = float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e6
		res.metrics["runtime.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
		gap, err := attributionGap(tr.spans)
		if err != nil {
			return nil, err
		}
		res.metrics["trace.attribution_gap_pct"] = gap
		if gap > 2 {
			return nil, fmt.Errorf("trace: layer times miss the window spans by %.2f%%, over 2%%", gap)
		}
		if res.tracePath, err = tr.write(cfg.outDir, traceFile{Workload: cfg.workload, Seed: cfg.seed, GoMaxProcs: runtime.GOMAXPROCS(0)}); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	if q.err != nil {
		return nil, q.err
	}
	for name, v := range res.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	return res, nil
}

// quantiler computes the percentiles a result reports. A refused
// percentile is a harness error, except in fixed-window test runs,
// which are too short by design and take the plain nearest rank.
type quantiler struct {
	lenient bool
	err     error
}

func (q *quantiler) of(name string, samples []float64, p float64) float64 {
	v, err := percentile(samples, p)
	if err == nil {
		return v
	}
	if q.lenient && len(samples) > 0 {
		return nearestRank(samples, p)
	}
	q.err = errors.Join(q.err, fmt.Errorf("%s: %w", name, err))
	return 0
}

func column(recs []windowRec, f func(*windowRec) float64) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = f(&recs[i])
	}
	return out
}

// windowLayers are the per-layer medians taken over the windows of a
// traced pass. on lists the workloads whose windows pass through the
// layer.
var windowLayers = []struct {
	name string
	on   []string
	f    func(*windowRec) float64
}{
	{"openflow.flow_stats_max_ms_p50", ft8Workloads, func(r *windowRec) float64 { return r.statsMaxMS }},
	{"openflow.stats_per_window", ft8Workloads, func(r *windowRec) float64 { return float64(len(r.statsUS)) }},
	{"collector.poll_ms_p50", ft8Workloads, func(r *windowRec) float64 { return r.pollMS }},
	{"collector.poll_self_ms_p50", ft8Workloads, func(r *windowRec) float64 { return r.pollMS - r.statsMaxMS }},
	{"collector.push_ms_p50", ft8Workloads, func(r *windowRec) float64 { return r.pushMS }},
	{"foces.serve_ms_p50", ft8Workloads, func(r *windowRec) float64 { return r.serveMS }},
	{"foces.serve_self_ms_p50", ft8Workloads, func(r *windowRec) float64 { return r.serveMS - r.runTotalMS }},
	{"foces.encode_us_p50", ft8Workloads, func(r *windowRec) float64 { return r.encodeMS * 1000 }},
	{"foces.report_bytes", ft8Workloads, func(r *windowRec) float64 { return float64(r.reportBytes) }},
	{"foces.batched_p50", ft8Workloads, func(r *windowRec) float64 { return float64(r.batched) }},
	{"core.full_ms_p50", ft8Workloads, func(r *windowRec) float64 { return r.fullMS }},
	{"core.sliced_ms_p50", ft8Workloads, func(r *windowRec) float64 { return r.slicedMS }},
	{"core.masked_rows_p50", ft8Workloads, func(r *windowRec) float64 { return float64(r.maskedRows) }},
	{"core.missing_switches_p50", ft8Workloads, func(r *windowRec) float64 { return float64(r.missing) }},
	{"core.detect_ms_p50", []string{wlSolve}, func(r *windowRec) float64 { return r.latencyMS }},
	{"churn.update_ms_p50", []string{wlChurn}, func(r *windowRec) float64 { return r.updateMS }},
	{"churn.apply_ms_p50", []string{wlChurn}, func(r *windowRec) float64 { return r.applyMS }},
	{"loadgen.traffic_ms_p50", allWorkloads, func(r *windowRec) float64 { return r.trafficMS }},
}

var (
	ft8Workloads = []string{wlSteady, wlDegraded, wlChurn}
	allWorkloads = []string{wlSteady, wlDegraded, wlChurn, wlSolve}
)

// layerMetrics fills the per-layer metrics that come from the windows
// of a traced pass.
func layerMetrics(res *result, q *quantiler, timed, untraced []windowRec) {
	m := res.metrics
	for _, l := range windowLayers {
		for _, w := range l.on {
			if w == res.workload {
				m[l.name] = q.of(l.name, column(timed, l.f), 50)
			}
		}
	}
	var statsUS []float64
	for i := range timed {
		statsUS = append(statsUS, timed[i].statsUS...)
	}
	if len(statsUS) > 0 {
		m["openflow.flow_stats_us_p50"] = q.of("openflow.flow_stats_us_p50", statsUS, 50)
		m["openflow.flow_stats_us_p95"] = q.of("openflow.flow_stats_us_p95", statsUS, 95)
	}

	latency := func(r *windowRec) float64 { return r.latencyMS }
	tracedP50 := q.of("trace.overhead_pct", column(timed, latency), 50)
	untracedP50 := q.of("trace.overhead_pct", column(untraced, latency), 50)
	m["trace.overhead_pct"] = (tracedP50 - untracedP50) / untracedP50 * 100

	var attacked, caught, clean, alarms, slicedAlarms, failed float64
	for i := range timed {
		r := &timed[i]
		switch {
		case r.failure != "":
			failed++
		case r.attacked:
			attacked++
			if r.fullAnom {
				caught++
			}
		default:
			clean++
			if r.fullAnom {
				alarms++
			}
			if r.slicedAnom {
				slicedAlarms++
			}
		}
	}
	m["verdict.recall"] = ratio(caught, attacked)
	m["verdict.false_alarm_share"] = ratio(alarms, clean)
	m["verdict.sliced_false_alarm_share"] = ratio(slicedAlarms, clean)
	m["verdict.failed_window_share"] = ratio(failed, float64(len(timed)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// attributionGap checks the trace against itself: per window, the
// layer times must add up to the window span. It returns the summed
// mismatch as a percentage of the summed window time.
func attributionGap(spans []span) (float64, error) {
	var total, off int64
	kids := childIndex(spans)
	for i, s := range spans {
		if s.Name != "window" {
			continue
		}
		var sum int64
		for _, v := range layerTimes(spans, kids, i) {
			sum += v
		}
		d := sum - s.dur()
		if d < 0 {
			d = -d
		}
		off += d
		total += s.dur()
	}
	if total == 0 {
		return 0, errors.New("trace: no window spans recorded")
	}
	return float64(off) / float64(total) * 100, nil
}
