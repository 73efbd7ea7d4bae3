// Command focesbench regenerates every table and figure of the FOCES
// evaluation (§VI): Table I and Figs 7-12. Each experiment prints the
// paper-style rows/series to stdout and, with -csv DIR, also writes a
// CSV per experiment.
//
// Usage:
//
//	focesbench -exp all                 # everything (slow)
//	focesbench -exp fig8 -runs 50       # one experiment, more samples
//	focesbench -exp fig12 -flows 240,480,960,1920,3840
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"foces/internal/analysis"
	"foces/internal/baseline"
	"foces/internal/controller"
	"foces/internal/experiment"
	"foces/internal/topo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "focesbench:", err)
		os.Exit(1)
	}
}

type options struct {
	exp    string
	runs   int
	seed   int64
	csvDir string
	flows  []int
	volume uint64
	topo   string
	check  bool
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("focesbench", flag.ContinueOnError)
	opts := options{}
	fs.StringVar(&opts.exp, "exp", "all", "experiment: all|table1|fig7|fig8|fig9|fig10|fig11|fig12|loc|coverage|overhead|monitor|churn|telemetry|stream|sparse|cluster|localize")
	fs.IntVar(&opts.runs, "runs", 0, "observations per point (0 = experiment default)")
	fs.Int64Var(&opts.seed, "seed", 1, "random seed")
	fs.StringVar(&opts.csvDir, "csv", "", "directory for CSV output (optional)")
	flowList := fs.String("flows", "", "comma-separated flow counts for fig12")
	fs.Uint64Var(&opts.volume, "volume", 1000, "packets per flow per interval")
	fs.StringVar(&opts.topo, "topo", "", "topology override for the stream, sparse and cluster experiments")
	fs.BoolVar(&opts.check, "check", false, "gated experiments only: exit non-zero on equivalence failure or performance regression")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *flowList != "" {
		for _, part := range strings.Split(*flowList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -flows entry %q: %w", part, err)
			}
			opts.flows = append(opts.flows, v)
		}
	}
	if opts.csvDir != "" {
		if err := os.MkdirAll(opts.csvDir, 0o755); err != nil {
			return err
		}
	}
	experiments := map[string]func(options, io.Writer) error{
		"table1":    runTableI,
		"fig7":      runFig7,
		"fig8":      runFig8,
		"fig9":      runFig9,
		"fig10":     runFig10, // fig10 and fig11 share the Slicing experiment
		"fig11":     runFig10,
		"fig12":     runFig12,
		"loc":       runLocalization, // extension: future work #1
		"coverage":  runCoverage,     // extension: future work #2
		"overhead":  runOverhead,     // §VII deployment-cost comparison
		"monitor":   runMonitor,      // extension: debounced-alarm study
		"churn":     runChurn,        // extension: incremental vs full-rebuild updates
		"telemetry": runTelemetry,    // hot-path cost of the metrics instrumentation
		"stream":    runStreamBench,  // streaming ingestion: latency tail, load
		"sparse":    runSparse,       // sparse Cholesky: memory wall, engine-vs-oracle equivalence
		"cluster":   runCluster,      // sharded multi-node detection: equivalence, failover, throughput
		"localize":  runLocalize,     // active-probe localization: culprit hit rate, probe budget
	}
	// -check is a pass/fail regression gate; only the experiments that
	// define gate criteria honour it. Accepting it elsewhere would let a
	// CI pipeline "gate" on an experiment that can never fail.
	if opts.check {
		gated := []string{"cluster", "localize", "sparse", "stream"}
		ok := false
		for _, g := range gated {
			if opts.exp == g {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("-check is only supported for the gated experiments (%s); %q has no pass/fail gate",
				strings.Join(gated, ", "), opts.exp)
		}
	}
	if opts.exp == "all" {
		for _, name := range []string{"table1", "fig7", "fig8", "fig9", "fig10", "fig12", "loc", "coverage", "overhead", "monitor", "churn", "telemetry"} {
			if err := experiments[name](opts, out); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	fn, ok := experiments[opts.exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", opts.exp)
	}
	return fn(opts, out)
}

func baseConfig(opts options) experiment.Config {
	return experiment.Config{Seed: opts.seed, PacketsPerFlow: opts.volume}
}

func writeCSV(opts options, name string, headers []string, rows [][]string) error {
	if opts.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(opts.csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return experiment.WriteCSV(f, headers, rows)
}

func runTableI(opts options, out io.Writer) error {
	rows, err := experiment.TableI(baseConfig(opts))
	if err != nil {
		return err
	}
	headers := []string{"topology", "switches", "hosts", "flows", "rules"}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Name, fmt.Sprint(r.Switches), fmt.Sprint(r.Hosts), fmt.Sprint(r.Flows), fmt.Sprint(r.Rules)})
	}
	fmt.Fprintln(out, "\n== Table I: topology inventory ==")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	return writeCSV(opts, "table1", headers, cells)
}

func runFig7(opts options, out io.Writer) error {
	cfg := experiment.FunctionalConfig{Config: baseConfig(opts)}
	points, err := experiment.Functional(cfg)
	if err != nil {
		return err
	}
	headers := []string{"loss", "time_s", "anomaly_index", "attack_active"}
	var cells [][]string
	for _, p := range points {
		cells = append(cells, []string{
			experiment.FormatPct(p.Loss),
			fmt.Sprint(p.TimeSec),
			experiment.FormatIndex(p.Index),
			fmt.Sprint(p.AttackActive),
		})
	}
	fmt.Fprintln(out, "\n== Fig 7: anomaly index timeline, BCube(1,4), attack in [60s,120s], T=4.5 ==")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	return writeCSV(opts, "fig7", headers, cells)
}

func runFig8(opts options, out io.Writer) error {
	headers := []string{"topology", "loss", "auc", "tpr_at_T4.5", "fpr_at_T4.5"}
	var cells [][]string
	for _, name := range topo.EvaluationTopologies() {
		cfg := experiment.ROCConfig{Config: baseConfig(opts), Runs: opts.runs}
		cfg.Topology = name
		series, err := experiment.ROC(cfg)
		if err != nil {
			return err
		}
		for _, s := range series {
			// The operating point closest to the default threshold.
			var tpr, fpr float64
			best := 1e18
			for _, p := range s.Points {
				if d := abs(p.Threshold - 4.5); d < best {
					best, tpr, fpr = d, p.TPR, p.FPR
				}
			}
			cells = append(cells, []string{
				name,
				experiment.FormatPct(s.Loss),
				fmt.Sprintf("%.3f", s.AUC),
				experiment.FormatPct(tpr),
				experiment.FormatPct(fpr),
			})
		}
	}
	fmt.Fprintln(out, "\n== Fig 8: ROC (AUC and the T=4.5 operating point) per topology and loss ==")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	return writeCSV(opts, "fig8", headers, cells)
}

func runFig9(opts options, out io.Writer) error {
	headers := []string{"topology", "loss", "modified_rules", "precision"}
	var cells [][]string
	for _, name := range topo.EvaluationTopologies() {
		cfg := experiment.PrecisionConfig{Config: baseConfig(opts), Runs: opts.runs}
		cfg.Topology = name
		points, err := experiment.Precision(cfg)
		if err != nil {
			return err
		}
		for _, p := range points {
			cells = append(cells, []string{
				name,
				experiment.FormatPct(p.Loss),
				fmt.Sprint(p.ModifiedRules),
				experiment.FormatPct(p.Precision),
			})
		}
	}
	fmt.Fprintln(out, "\n== Fig 9: precision vs loss for 1/2/3 modified rules, T=3.5 ==")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	return writeCSV(opts, "fig9", headers, cells)
}

func runFig10(opts options, out io.Writer) error {
	cfg := experiment.SlicingConfig{Config: baseConfig(opts), Runs: opts.runs}
	results, err := experiment.Slicing(cfg)
	if err != nil {
		return err
	}
	headers := []string{"topology", "baseline_opt_T", "baseline_acc", "sliced_opt_T", "sliced_acc"}
	var cells [][]string
	for _, r := range results {
		cells = append(cells, []string{
			r.Topology,
			fmt.Sprintf("%.0f", r.OptBaselineThreshold),
			experiment.FormatPct(r.OptBaselineAccuracy),
			fmt.Sprintf("%.0f", r.OptSlicedThreshold),
			experiment.FormatPct(r.OptSlicedAccuracy),
		})
	}
	fmt.Fprintln(out, "\n== Fig 10: accuracy at optimal threshold, baseline vs slicing ==")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	if err := writeCSV(opts, "fig10", headers, cells); err != nil {
		return err
	}
	// Fig 11: the full threshold sweep per topology.
	curveHeaders := []string{"topology", "threshold", "baseline_acc", "sliced_acc"}
	var curveCells [][]string
	for _, r := range results {
		for _, c := range r.Curve {
			curveCells = append(curveCells, []string{
				r.Topology,
				fmt.Sprintf("%.0f", c.Threshold),
				fmt.Sprintf("%.3f", c.Baseline),
				fmt.Sprintf("%.3f", c.Sliced),
			})
		}
	}
	fmt.Fprintln(out, "== Fig 11: accuracy vs threshold (full sweep in CSV; sample below) ==")
	sample := curveCells
	if len(sample) > 20 {
		step := len(sample) / 20
		var s [][]string
		for i := 0; i < len(sample); i += step {
			s = append(s, sample[i])
		}
		sample = s
	}
	fmt.Fprint(out, experiment.FormatTable(curveHeaders, sample))
	return writeCSV(opts, "fig11", curveHeaders, curveCells)
}

func runFig12(opts options, out io.Writer) error {
	cfg := experiment.ScalingConfig{Config: baseConfig(opts), FlowCounts: opts.flows}
	points, err := experiment.Scaling(cfg)
	if err != nil {
		return err
	}
	headers := []string{"flows", "rules", "baseline_s", "sliced_s", "speedup", "slice_build_s"}
	var cells [][]string
	for _, p := range points {
		speedup := p.BaselineSecs / p.SlicedSecs
		cells = append(cells, []string{
			fmt.Sprint(p.Flows),
			fmt.Sprint(p.Rules),
			fmt.Sprintf("%.4f", p.BaselineSecs),
			fmt.Sprintf("%.4f", p.SlicedSecs),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.4f", p.SliceBuildSecs),
		})
	}
	fmt.Fprintln(out, "\n== Fig 12: detection time vs number of flows, FatTree(8) ==")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	return writeCSV(opts, "fig12", headers, cells)
}

func runLocalization(opts options, out io.Writer) error {
	cfg := experiment.LocalizationConfig{Config: baseConfig(opts), Runs: opts.runs}
	points, err := experiment.Localization(cfg)
	if err != nil {
		return err
	}
	headers := []string{"topology", "detected", "top1_hit", "top3_hit", "delta_top3_hit", "mean_suspects"}
	var cells [][]string
	for _, p := range points {
		cells = append(cells, []string{
			p.Topology,
			experiment.FormatPct(p.Detected),
			experiment.FormatPct(p.HitTop1),
			experiment.FormatPct(p.HitTopK),
			experiment.FormatPct(p.DeltaHitTopK),
			fmt.Sprintf("%.1f", p.MeanSuspects),
		})
	}
	fmt.Fprintln(out, "\n== Extension (future work #1): per-switch localization quality ==")
	fmt.Fprintln(out, "   hit = compromised switch or a direct neighbour appears in the suspect list")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	return writeCSV(opts, "localization", headers, cells)
}

func runCoverage(opts options, out io.Writer) error {
	headers := []string{"topology", "mode", "deviations", "detectable", "undetectable", "loops"}
	var cells [][]string
	// Coverage enumerates every (rule, port, flow) deviation and solves a
	// least-squares membership test per deviation; restrict the default
	// sweep to the two mid-size fabrics (analysis.Coverage handles any
	// topology if invoked directly).
	for _, name := range []string{"fattree4", "bcube14"} {
		for modeName, mode := range map[string]controller.PolicyMode{
			"pair": controller.PairExact,
			"dest": controller.DestAggregate,
		} {
			cfg := baseConfig(opts)
			cfg.Topology = name
			cfg.Mode = mode
			env, err := experiment.NewEnv(cfg)
			if err != nil {
				return err
			}
			rep, err := analysis.Coverage(env.FCM)
			if err != nil {
				return err
			}
			cells = append(cells, []string{
				name,
				modeName,
				fmt.Sprint(rep.Total),
				experiment.FormatPct(rep.DetectableFraction()),
				fmt.Sprint(len(rep.Undetectable)),
				fmt.Sprint(rep.ForwardingLoops),
			})
		}
	}
	sortCells(cells)
	fmt.Fprintln(out, "\n== Extension (future work #2): detectability coverage of all single-rule deviations ==")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	return writeCSV(opts, "coverage", headers, cells)
}

func runOverhead(opts options, out io.Writer) error {
	headers := []string{"topology", "flows", "rules",
		"foces_extra_rules", "foces_hdr_B/pkt", "foces_ctrl_B/period",
		"perflow_dedicated_rules", "pathverify_hdr_B/pkt", "pathverify_bw"}
	var cells [][]string
	for _, name := range topo.EvaluationTopologies() {
		cfg := baseConfig(opts)
		cfg.Topology = name
		env, err := experiment.NewEnv(cfg)
		if err != nil {
			return err
		}
		rep := baseline.CompareOverheads(env.FCM)
		cells = append(cells, []string{
			name,
			fmt.Sprint(rep.Flows),
			fmt.Sprint(rep.Rules),
			fmt.Sprint(rep.FOCESExtraRules),
			fmt.Sprint(rep.FOCESHeaderBytesPerPkt),
			fmt.Sprint(rep.FOCESControlBytesPeriod),
			fmt.Sprint(rep.PerFlowDedicatedRules),
			fmt.Sprint(rep.PathVerifyHeaderBytesPerPkt),
			fmt.Sprintf("%.1f%%", rep.PathVerifyBandwidthPct),
		})
	}
	fmt.Fprintln(out, "\n== §VII deployment-cost comparison (monitoring every flow) ==")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	return writeCSV(opts, "overhead", headers, cells)
}

func runMonitor(opts options, out io.Writer) error {
	headers := []string{"loss", "raw_FP_rate", "debounced_FP_rate", "raw_TP_rate", "debounced_TP_rate", "delay_periods"}
	var cells [][]string
	for _, loss := range []float64{0.15, 0.20, 0.25} {
		cfg := experiment.MonitorConfig{Config: baseConfig(opts), Loss: loss}
		if opts.runs > 0 {
			cfg.Periods = opts.runs * 4
			cfg.AttackPeriods = opts.runs
		}
		res, err := experiment.MonitorStudy(cfg)
		if err != nil {
			return err
		}
		cells = append(cells, []string{
			experiment.FormatPct(res.Loss),
			experiment.FormatPct(res.RawFPRate),
			experiment.FormatPct(res.DebouncedFPRate),
			experiment.FormatPct(res.RawTPRate),
			experiment.FormatPct(res.DebouncedTPRate),
			fmt.Sprint(res.DetectionDelayPeriods),
		})
	}
	fmt.Fprintln(out, "\n== Extension: debounced K-of-N alarms at heavy loss (FatTree(4)) ==")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	return writeCSV(opts, "monitor", headers, cells)
}

// runChurn benchmarks the dynamic-network subsystem: per-update latency
// of absorbing single-rule changes incrementally (epoch-versioned churn
// manager) versus a cold full-baseline rebuild, on FatTree(8). Besides
// the table/CSV it writes the full trajectory as churn.json so the
// per-update latency series can be tracked over time.
func runChurn(opts options, out io.Writer) error {
	cfg := experiment.ChurnConfig{Config: baseConfig(opts)}
	if opts.runs > 0 {
		cfg.Updates = opts.runs
	}
	if len(opts.flows) > 0 {
		cfg.Flows = opts.flows[0]
	}
	res, err := experiment.Churn(cfg)
	if err != nil {
		return err
	}
	headers := []string{"update", "op", "live_rules", "flows", "incremental_ms", "full_rebuild_ms", "speedup",
		"retraced", "slices_reused", "slices_updated", "slices_refactored", "verdict_match"}
	var cells [][]string
	for _, p := range res.Points {
		cells = append(cells, []string{
			fmt.Sprint(p.Update),
			p.Op,
			fmt.Sprint(p.Rules),
			fmt.Sprint(p.Flows),
			fmt.Sprintf("%.3f", p.IncrementalSecs*1000),
			fmt.Sprintf("%.3f", p.FullSecs*1000),
			fmt.Sprintf("%.1fx", p.Speedup),
			fmt.Sprint(p.Retraced),
			fmt.Sprint(p.SlicesReused),
			fmt.Sprint(p.SlicesUpdated),
			fmt.Sprint(p.SlicesRefactored),
			fmt.Sprint(p.VerdictMatch),
		})
	}
	fmt.Fprintf(out, "\n== Extension: dynamic networks — incremental update vs full rebuild, %s ==\n", res.Topology)
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	fmt.Fprintf(out, "median speedup %.1fx (target >= 10x); totals: incremental %.3fs, full rebuilds %.3fs\n",
		res.MedianSpeedup, res.TotalIncrementalSecs, res.TotalFullSecs)
	if opts.csvDir != "" {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(opts.csvDir, "churn.json"), append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	return writeCSV(opts, "churn", headers, cells)
}

// runTelemetry measures what live metrics cost on the detection hot
// path (System.Run with a no-op vs a live registry) and archives the
// result — including the full metrics snapshot the instrumented arm
// produced — as results/telemetry_overhead.json.
func runTelemetry(opts options, out io.Writer) error {
	cfg := experiment.TelemetryOverheadConfig{Seed: opts.seed}
	if opts.runs > 0 {
		cfg.Runs = opts.runs
	}
	res, err := experiment.TelemetryOverhead(cfg)
	if err != nil {
		return err
	}
	headers := []string{"topology", "rules", "slices", "nop_ns/detect", "live_ns/detect", "overhead"}
	cells := [][]string{{
		res.Topology,
		fmt.Sprint(res.Rules),
		fmt.Sprint(res.Slices),
		fmt.Sprintf("%.0f", res.NopNs),
		fmt.Sprintf("%.0f", res.EnabledNs),
		fmt.Sprintf("%+.2f%%", res.OverheadPct),
	}}
	fmt.Fprintln(out, "\n== telemetry overhead (prepared engines, clean path) ==")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	fmt.Fprintf(out, "metric families populated: %d\n", len(res.Families))
	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join("results", "telemetry_overhead.json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return writeCSV(opts, "telemetry", headers, cells)
}

// runStreamBench exercises the streaming ingestion layer: the
// ingest-to-verdict latency tail over real traffic windows, and a
// saturating synthetic load phase through the bounded-queue assembler.
// The result is always archived as results/stream.json; with -check the
// run fails on sustained ingestion below 1M updates/sec, on unbounded
// queue growth, or on a p99 latency regression past 3x the previously
// archived run.
func runStreamBench(opts options, out io.Writer) error {
	cfg := experiment.StreamBenchConfig{Topology: opts.topo, Seed: opts.seed}
	if opts.runs > 0 {
		cfg.LatencyWindows = opts.runs
	}
	if len(opts.flows) > 0 {
		cfg.Flows = opts.flows[0]
	}
	resultPath := filepath.Join("results", "stream.json")
	var prev experiment.StreamBenchResult
	havePrev := false
	if blob, err := os.ReadFile(resultPath); err == nil {
		if json.Unmarshal(blob, &prev) == nil && prev.P99LatencyMs > 0 {
			havePrev = true
		}
	}
	res, err := experiment.StreamBench(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n== stream: push-driven ingestion, %s switches=%d flows=%d rules=%d GOMAXPROCS=%d ==\n",
		res.Topology, res.Switches, res.Flows, res.Rules, res.GoMaxProcs)
	fmt.Fprintf(out, "latency: %d windows, ingest-to-verdict p50 %.3fms p99 %.3fms max %.3fms\n",
		res.DetectWindows, res.P50LatencyMs, res.P99LatencyMs, res.MaxLatencyMs)
	fmt.Fprintf(out, "load: %.2fM updates/sec over %.2fs (%d pushes, %d windows, %d coalesced, %d dropped windows)\n",
		res.UpdatesPerSec/1e6, res.LoadSecs, res.LoadPushes, res.LoadWindows, res.CoalescedSnapshots, res.DroppedWindows)
	fmt.Fprintf(out, "queues: max depth %d of bound %d (bounded: %v)\n",
		res.MaxQueueDepth, res.QueueBound, res.QueueBounded)
	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if opts.check {
		if !res.QueueBounded {
			return fmt.Errorf("stream check: queue depth %d exceeded bound %d", res.MaxQueueDepth, res.QueueBound)
		}
		if res.UpdatesPerSec < 1e6 {
			return fmt.Errorf("stream check: sustained %.0f updates/sec, below the 1M floor", res.UpdatesPerSec)
		}
		if havePrev && res.P99LatencyMs > prev.P99LatencyMs*3 {
			return fmt.Errorf("stream check: p99 ingest-to-verdict latency %.3fms regressed past previous %.3fms x3",
				res.P99LatencyMs, prev.P99LatencyMs)
		}
	}
	return nil
}

// runSparse exercises the sparse Cholesky solver: a scale arm on the
// FatTree(16) service-group H (prepared in dual form, H being wide,
// with peak heap sampled) and an equivalence arm that prepares every
// evaluation topology and compares the engine's verdicts and residual
// norms with the oracle's dense normal equations window by window. The result is always
// archived as results/sparse.json; with -check the run fails unless
// the sparse peak heap stays within the memory budget, verdicts match
// with residual deltas <= 1e-12, and neither the sparse prepare
// (fastest within a second) nor the factor's entry count has regressed
// past 1.25x the previously archived run.
func runSparse(opts options, out io.Writer) error {
	cfg := experiment.SparseConfig{Topology: opts.topo, Seed: opts.seed}
	if opts.runs > 0 {
		cfg.Windows = opts.runs
	}
	if len(opts.flows) > 0 {
		cfg.GroupSize = opts.flows[0]
	}
	resultPath := filepath.Join("results", "sparse.json")
	var prev experiment.SparseResult
	if blob, err := os.ReadFile(resultPath); err == nil {
		_ = json.Unmarshal(blob, &prev)
	}
	res, err := experiment.Sparse(cfg)
	if err != nil {
		return err
	}
	// Compared against the resolved configuration: cfg's zero values stand
	// for defaults, which the archive spells out.
	havePrev := prev.PrepareSecs > 0 && prev.Topology == res.Topology && prev.GroupSize == res.GroupSize
	fmt.Fprintf(out, "\n== sparse: direct solver on %s, hosts=%d group=%d H=%dx%d GOMAXPROCS=%d ==\n",
		res.Topology, res.Hosts, res.GroupSize, res.Rows, res.Cols, res.GoMaxProcs)
	side := "HᵀH"
	if res.Dual {
		side = "HHᵀ+εI (dual: H is wide)"
	}
	fmt.Fprintf(out, "gram: factored %s, %d x %d, %d nnz (density %.4f, %.0f MiB if dense), factor %d nnz (fill %.2fx)\n",
		side, res.FactoredDim, res.FactoredDim, res.GramNNZ, res.GramDensity, float64(res.DenseGramBytes)/(1<<20), res.FactorNNZ, res.FillRatio)
	fmt.Fprintf(out, "memory: sparse peak heap %.0f MiB (budget %.0f MiB, within: %v)\n",
		float64(res.PeakHeapBytes)/(1<<20), float64(res.BudgetBytes)/(1<<20), res.SparseWithinBudget)
	fmt.Fprintf(out, "prepare: %.3fs total (gram %.3fs, ordering %.3fs, symbolic %.3fs, numeric %.3fs)\n",
		res.PrepareSecs, res.GramSecs, res.OrderingSecs, res.SymbolicSecs, res.NumericSecs)
	fmt.Fprintf(out, "detect: %.2fms/window over %d windows; clean anomalous: %v, tampered anomalous: %v\n",
		res.SolveNsPerWindow/1e6, res.Windows, res.CleanAnomalous, res.TamperedAnomalous)
	for _, eq := range res.Equiv {
		fmt.Fprintf(out, "equivalence %-10s H=%dx%d density %.4f: engine vs oracle verdicts match %v, max residual delta %.2e\n",
			eq.Topology, eq.Rows, eq.Cols, eq.GramDensity, eq.VerdictsMatch, eq.MaxResidualDelta)
	}
	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if opts.check {
		if !res.SparseWithinBudget {
			return fmt.Errorf("sparse check: peak heap %d bytes exceeded the %d-byte budget", res.PeakHeapBytes, res.BudgetBytes)
		}
		if !res.VerdictsMatch {
			return fmt.Errorf("sparse check: engine and oracle verdicts diverged")
		}
		if res.MaxResidualDelta > 1e-12 {
			return fmt.Errorf("sparse check: residual delta %.3e exceeds 1e-12", res.MaxResidualDelta)
		}
		if res.CleanAnomalous || !res.TamperedAnomalous {
			return fmt.Errorf("sparse check: scale-arm verdicts wrong (clean=%v tampered=%v)", res.CleanAnomalous, res.TamperedAnomalous)
		}
		if havePrev && res.PrepareSecs > prev.PrepareSecs*1.25 {
			return fmt.Errorf("sparse check: prepare %.3fs regressed past previous %.3fs x1.25", res.PrepareSecs, prev.PrepareSecs)
		}
		// The factor's size is deterministic, so unlike the timing it
		// catches a worse ordering or a lost dual form on any machine.
		if havePrev && float64(res.FactorNNZ) > float64(prev.FactorNNZ)*1.25 {
			return fmt.Errorf("sparse check: factor %d nnz grew past previous %d x1.25", res.FactorNNZ, prev.FactorNNZ)
		}
	}
	return nil
}

// runCluster exercises the sharded multi-node detection cluster:
// byte-for-byte report equivalence between the distributed and
// single-process paths (clean, attacked, churn-reconciled windows),
// verdict survival of a detector node killed mid-window, and detect
// throughput of an N-node cluster against a single node. The result is
// always archived as results/cluster.json; with -check the run fails
// on any report divergence (including across the node kill), on a
// distributed window exceeding the collection interval, or — on hosts
// with GOMAXPROCS >= 4, where the in-process nodes can actually run in
// parallel — on a multi-node/one-node throughput ratio below 2x.
func runCluster(opts options, out io.Writer) error {
	cfg := experiment.ClusterConfig{Topology: opts.topo, Seed: opts.seed}
	if opts.runs > 0 {
		cfg.ThroughputWindows = opts.runs
	}
	if len(opts.flows) > 0 {
		cfg.Flows = opts.flows[0]
	}
	res, err := experiment.Cluster(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n== cluster: sharded detection, %s switches=%d flows=%d rules=%d shards=%d nodes=%d GOMAXPROCS=%d ==\n",
		res.Topology, res.Switches, res.Flows, res.Rules, res.Shards, res.Nodes, res.GoMaxProcs)
	headers := []string{"window", "path", "anomalous", "match"}
	var cells [][]string
	for _, w := range res.Windows {
		cells = append(cells, []string{fmt.Sprint(w.Window), w.Path, fmt.Sprint(w.Anomalous), fmt.Sprint(w.Match)})
	}
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	fmt.Fprintf(out, "equivalence: %d windows, all match: %v; baseline syncs: %d snapshots, %d deltas\n",
		res.EquivWindows, res.VerdictsMatch, res.SnapshotSyncs, res.DeltaSyncs)
	if res.Mismatch != "" {
		fmt.Fprintf(out, "  mismatch: %s\n", res.Mismatch)
	}
	fmt.Fprintf(out, "node kill: verdict identical across death: %v (evictions %d, requeued shards %d, degraded: %v)\n",
		res.KillMatch, res.Evictions, res.RequeuedShards, res.DegradedAfterKill)
	fmt.Fprintf(out, "throughput: %d windows, 1 node %.3fs vs %d nodes %.3fs (%.2fx); first window %.3fs, max warm window %.3fs (interval %.0fs, within: %v)\n",
		res.ThroughputWindows, res.OneNodeSecs, res.Nodes, res.MultiNodeSecs, res.ThroughputRatio,
		res.FirstWindowSecs, res.MaxWindowSecs, res.IntervalSecs, res.WithinInterval)
	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join("results", "cluster.json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if err := writeCSV(opts, "cluster", headers, cells); err != nil {
		return err
	}
	if opts.check {
		if !res.VerdictsMatch {
			return fmt.Errorf("cluster check: distributed reports diverged from single-process: %s", res.Mismatch)
		}
		if !res.KillMatch {
			return fmt.Errorf("cluster check: verdict changed across a node death (evictions %d, requeued %d)",
				res.Evictions, res.RequeuedShards)
		}
		if res.DeltaSyncs == 0 {
			return fmt.Errorf("cluster check: no incremental deltas shipped — baseline replication fell back to snapshots only")
		}
		if res.SnapshotSyncs <= int64(res.Shards) {
			return fmt.Errorf("cluster check: %d snapshots for %d shards — the refactoring epoch never re-shipped a baseline",
				res.SnapshotSyncs, res.Shards)
		}
		if !res.WithinInterval {
			return fmt.Errorf("cluster check: a distributed window took %.3fs (first %.3fs), exceeding the %.0fs collection interval",
				res.MaxWindowSecs, res.FirstWindowSecs, res.IntervalSecs)
		}
		if res.ThroughputGated && res.ThroughputRatio < 2.0 {
			return fmt.Errorf("cluster check: %d-node throughput only %.2fx one node (>= 2x required at GOMAXPROCS %d)",
				res.Nodes, res.ThroughputRatio, res.GoMaxProcs)
		}
		if !res.ThroughputGated {
			fmt.Fprintf(out, "note: throughput ratio gate waived (GOMAXPROCS %d < 4 — nodes cannot run in parallel)\n", res.GoMaxProcs)
		}
	}
	return nil
}

// runLocalize exercises the active-probe localization subsystem
// end-to-end: for every (topology, policy, anomaly class) arm it
// injects a single anomaly per run, detects it through System.Run with
// a LocalizeConfig attached, and scores whether the ranked culprit
// report named the attacked rule in the top 3 within the probe budget
// (ceil(log2(|suspect rules|)) + 2). The result is always archived as
// results/localize.json; with -check the run fails if nothing was
// detected, if any run breached its probe budget, or if the top-3 hit
// rate over detected runs drops below 0.9. Pair-exact arms localize
// deterministically; the dest-aggregate arms are what keep the rate
// below 1.0 — a rejoining anomaly over shared per-destination rules
// can be absorbed by the least-squares fit, leaving no residual signal
// to steer probes by.
func runLocalize(opts options, out io.Writer) error {
	cfg := experiment.LocalizeConfig{Config: baseConfig(opts)}
	if opts.runs > 0 {
		cfg.Runs = opts.runs
	}
	res, err := experiment.Localize(cfg)
	if err != nil {
		return err
	}
	headers := []string{"topology", "policy", "class", "runs", "detected", "top1", "top3",
		"mean_probes", "max_probes", "mean_budget", "breaches", "mean_suspect_rules"}
	var cells [][]string
	for _, p := range res.Points {
		cells = append(cells, []string{
			p.Topology, p.Mode, string(p.Class),
			fmt.Sprint(p.Runs), fmt.Sprint(p.Detected),
			fmt.Sprint(p.HitTop1), fmt.Sprint(p.HitTop3),
			fmt.Sprintf("%.2f", p.MeanProbes), fmt.Sprint(p.MaxProbes),
			fmt.Sprintf("%.2f", p.MeanBudget), fmt.Sprint(p.BudgetBreaches),
			fmt.Sprintf("%.1f", p.MeanSuspectRules),
		})
	}
	fmt.Fprintln(out, "\n== localize: active-probe culprit localization per anomaly class ==")
	fmt.Fprint(out, experiment.FormatTable(headers, cells))
	fmt.Fprintf(out, "totals: %d runs, %d detected, %d localized, top-3 hit rate %.3f (%d/%d), mean probes %.2f, budget breaches %d\n",
		res.Runs, res.Detected, res.Localized, res.HitTop3Rate, res.HitTop3, res.Detected, res.MeanProbes, res.BudgetBreaches)
	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join("results", "localize.json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if err := writeCSV(opts, "localize", headers, cells); err != nil {
		return err
	}
	if opts.check {
		if res.Detected == 0 {
			return fmt.Errorf("localize check: no run detected its injected anomaly")
		}
		if res.BudgetBreaches != 0 {
			return fmt.Errorf("localize check: %d runs exceeded the probe budget ceil(log2(n))+2", res.BudgetBreaches)
		}
		if res.HitTop3Rate < 0.9 {
			return fmt.Errorf("localize check: top-3 hit rate %.3f (%d/%d) below the 0.9 floor",
				res.HitTop3Rate, res.HitTop3, res.Detected)
		}
	}
	return nil
}

// sortCells orders rows lexicographically for deterministic output
// (the mode map iterates randomly).
func sortCells(cells [][]string) {
	sort.Slice(cells, func(i, j int) bool {
		for k := range cells[i] {
			if cells[i][k] != cells[j][k] {
				return cells[i][k] < cells[j][k]
			}
		}
		return false
	})
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
