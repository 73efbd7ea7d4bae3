package main

import (
	"fmt"
	"io"
	"strconv"
)

// This file is the benchmark's contract with BENCHMARK.json: the
// workloads and every metric's name, unit, direction and bound. -list
// prints it and TestListMatchesBenchmarkJSON holds the two together.

type workloadSpec struct {
	Name string
	Why  string
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics carry none.
	Bound float64
}

const (
	wlSteady   = "steady-ft8"
	wlDegraded = "degraded-ft8"
	wlChurn    = "churn-ft8"
	wlSolve    = "solve-ft16"
)

var workloads = []workloadSpec{
	{wlSteady, "clean path on FatTree(8)/960 flows over 80 loopback agents: collection is ~2/3 of the blocking chain, the sliced solve the rest, matrix idle (diagonal Gram)"},
	{wlDegraded, "same chain, one switch unpolled per window: every window takes the missing path, where cold re-factoring in core does most of the work and collection is unchanged"},
	{wlChurn, "same chain, one ModifyRule per window: every window straddles an epoch and is reconciled; churn apply and the FCM re-trace dominate, so slower baseline maintenance shows"},
	{wlSolve, "no collection plane: FatTree(16) service-group H (6,144 x 31,744) through one prepared Detector; the matrix kernels do all the work, collector and openflow none"},
}

// endToEnd is measured by the untraced run, on every workload. The
// timing bounds are the widest the contract allows: on a 2-vCPU box the
// whole latency distribution drifts ±10% over minutes (README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"verdict_latency_ms_p50", "ms", "lower", 0.25},
	{"verdict_latency_ms_p95", "ms", "lower", 0.25},
	{"windows_per_s", "1/s", "higher", 0.25},
	{"allocs_per_window", "count", "lower", 0.05},
	{"alloc_kib_per_window", "KiB", "lower", 0.10},
	{"heap_live_mib", "MiB", "lower", 0.05},
}

// perLayer is measured by the traced run. Every workload prints every
// name; a layer that is not on a workload's path reads 0 there.
var perLayer = []metricSpec{
	{Name: "controller.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "fcm.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.slices_build_ms", Unit: "ms", Better: "lower"},
	{Name: "core.full_prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "matrix.gram_ms", Unit: "ms", Better: "lower"},
	{Name: "matrix.ordering_ms", Unit: "ms", Better: "lower"},
	{Name: "matrix.symbolic_ms", Unit: "ms", Better: "lower"},
	{Name: "matrix.numeric_ms", Unit: "ms", Better: "lower"},
	{Name: "matrix.factor_nnz", Unit: "count", Better: "lower"},
	{Name: "matrix.fill_ratio", Unit: "ratio", Better: "lower"},
	{Name: "openflow.flow_stats_us_p50", Unit: "us", Better: "lower"},
	{Name: "openflow.flow_stats_us_p95", Unit: "us", Better: "lower"},
	{Name: "openflow.flow_stats_max_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "openflow.stats_per_window", Unit: "count", Better: "lower"},
	{Name: "collector.poll_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.poll_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.push_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.requests", Unit: "count", Better: "lower"},
	{Name: "collector.retries", Unit: "count", Better: "lower"},
	{Name: "collector.failures", Unit: "count", Better: "lower"},
	{Name: "collector.quarantines", Unit: "count", Better: "lower"},
	{Name: "collector.coalesced", Unit: "count", Better: "lower"},
	{Name: "collector.dropped_windows", Unit: "count", Better: "lower"},
	{Name: "collector.max_queue_depth", Unit: "count", Better: "lower"},
	{Name: "foces.serve_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "foces.serve_self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "foces.encode_us_p50", Unit: "us", Better: "lower"},
	{Name: "foces.report_bytes", Unit: "count", Better: "lower"},
	{Name: "foces.batched_p50", Unit: "count", Better: "higher"},
	{Name: "core.full_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.sliced_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.masked_rows_p50", Unit: "count", Better: "lower"},
	{Name: "core.missing_switches_p50", Unit: "count", Better: "lower"},
	{Name: "core.detect_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "churn.update_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "churn.apply_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "churn.retraced_sources", Unit: "count", Better: "lower"},
	{Name: "churn.slices_reused", Unit: "count", Better: "higher"},
	{Name: "churn.slices_updated", Unit: "count", Better: "lower"},
	{Name: "churn.slices_refactored", Unit: "count", Better: "lower"},
	{Name: "churn.reuse_share", Unit: "ratio", Better: "higher"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "loadgen.traffic_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.attribution_gap_pct", Unit: "%", Better: "lower"},
	{Name: "verdict.recall", Unit: "ratio", Better: "higher"},
	{Name: "verdict.false_alarm_share", Unit: "ratio", Better: "lower"},
	{Name: "verdict.sliced_false_alarm_share", Unit: "ratio", Better: "lower"},
	{Name: "verdict.failed_window_share", Unit: "ratio", Better: "lower"},
}

// writeList prints the contract one item a line, fields separated by
// tabs: kind, name, then unit, direction and bound for metrics.
func writeList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload\t%s\n", wl.Name)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "end_to_end\t%s\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better, strconv.FormatFloat(m.Bound, 'g', -1, 64))
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "per_layer\t%s\t%s\t%s\n", m.Name, m.Unit, m.Better)
	}
}
