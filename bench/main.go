// Command bench is the repository's one end-to-end benchmark: it drives
// the whole window chain — switch agents, the openflow stats round
// trip, the collector, Serve/RunBatch, core and matrix, the report
// encoder — from outside, on four named workloads, and prints every
// metric BENCHMARK.json names. README.md in this directory says why
// each workload exists and how to read the output.
//
//	go run ./bench                          # all four workloads
//	go run ./bench -workload churn-ft8 -seed 7 -seconds 12 -trace 1
//	go run ./bench -repeat 2                # do two sets of runs agree?
//	go run ./bench -list                    # the contract, one item a line
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all four, in order)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long each timed pass measures (never fewer than 220 windows)")
	trace := fs.Int("trace", 0, "1: traced run, printing per-layer metrics and writing bench/out/trace-<workload>.json")
	repeat := fs.Int("repeat", 1, "run the set this many times and fail if an end-to-end metric spreads past its bound")
	list := fs.Bool("list", false, "print workloads and metrics with units and bounds, one a line, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		writeList(stdout)
		return 0
	}
	names, err := selectWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 || *repeat < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1, -repeat at least 1, -seconds more than 0")
		return 2
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: "bench/out"}
	if len(names) == 1 && *repeat == 1 {
		cfg.workload = names[0]
		fmt.Fprintf(stdout, "# foces bench: seed=%d seconds=%g trace=%d gomaxprocs=%d commit=%s %s %s/%s\n",
			*seed, *seconds, *trace, runtime.GOMAXPROCS(0), commit(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		fmt.Fprintln(stdout, "# load: closed loop, 1 client, 1 window in flight; on the ft8 workloads the 80 TCP connections are the")
		fmt.Fprintln(stdout, "#       monitored switches' control channels over the host loopback (no real link), not generator concurrency")
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", cfg.workload, err)
			return 1
		}
		printResult(stdout, res, cfg.trace)
		return 0
	}
	// Several runs: each in a process of its own, by the single-workload
	// form above. A System that has detected once is never collected
	// (its sliced-engine pool worker outlives it), so a second run in
	// this process would start with ~9 MiB more live heap, collect less
	// often and read faster than the first.
	runs := make(map[string][]childRun)
	for r := 0; r < *repeat; r++ {
		for _, name := range names {
			run, err := runChild(name, cfg, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			runs[name] = append(runs[name], run)
		}
	}
	if *repeat > 1 && !printAgreement(stdout, names, runs) {
		return 1
	}
	return 0
}

// childRun is what the parent keeps of one run made in a child process.
type childRun struct {
	result   jsonResult
	verdicts string // the child's "verdicts:" line
}

// runChild runs one workload in a child process of this binary, copies
// its output through, and waits for it to end.
func runChild(workload string, cfg runConfig, stdout, stderr io.Writer) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &out)
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return childRun{}, err
	}
	var run childRun
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, line := range lines {
		if strings.HasPrefix(line, "verdicts:") {
			run.verdicts = line
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.result); err != nil {
		return childRun{}, fmt.Errorf("child's last line is not a result: %w", err)
	}
	return run, nil
}

func selectWorkloads(name string) ([]string, error) {
	var all []string
	for _, w := range workloads {
		if w.Name == name {
			return []string{name}, nil
		}
		all = append(all, w.Name)
	}
	if name == "" {
		return all, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, all)
}

// commit is the revision the binary was built from, when the build
// recorded one; a checkout that is not a repository records none.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult prints one run: a readable table, then the result object
// on a line of its own — the last line when one workload runs.
func printResult(w io.Writer, res *result, traced bool) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	fmt.Fprintf(w, "\n== %s: %d windows timed, %d attempted, %d failed\n", res.workload, res.samples, res.attempted, res.failed)
	out := jsonResult{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]jsonMetric, len(specs))}
	for _, s := range specs {
		v := res.metrics[s.Name]
		fmt.Fprintf(w, "%-34s %s %s\n", s.Name, strconv.FormatFloat(v, 'f', -1, 64), s.Unit)
		out.Metrics[s.Name] = jsonMetric{Value: v, Unit: s.Unit}
	}
	fmt.Fprintln(w, verdictLine(res))
	for _, n := range res.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, f := range res.failures {
		fmt.Fprintln(w, "failed:", f)
	}
	if res.tracePath != "" {
		fmt.Fprintln(w, "trace:", res.tracePath)
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // metrics were checked finite; nothing else can fail to encode
	}
	fmt.Fprintf(w, "%s\n", line)
}

// verdictLine summarises the labels and verdicts of the first
// minWindows timed windows — every run has at least those, however
// fast the machine — so that two runs with one seed can be compared.
func verdictLine(res *result) string {
	labels := res.labels
	if len(labels) > minWindows {
		labels = labels[:minWindows]
	}
	var attacked, caught, alarms, slicedAlarms int
	h := fnv.New64a()
	h.Write(labels)
	for _, b := range labels {
		switch {
		case b&1 != 0:
			attacked++
			if b&2 != 0 {
				caught++
			}
		default:
			if b&2 != 0 {
				alarms++
			}
			if b&4 != 0 {
				slicedAlarms++
			}
		}
	}
	return fmt.Sprintf("verdicts: first %d windows: attacked %d, caught %d, false alarms %d, sliced false alarms %d, digest %016x",
		len(labels), attacked, caught, alarms, slicedAlarms, h.Sum64())
}

// printAgreement summarises -repeat: per metric the minimum, median and
// maximum over the repeats and their spread, (max−min)/median. It
// reports false when an end-to-end metric spread past its own bound, or
// when two runs of one seed disagree on attack labels or verdicts.
func printAgreement(w io.Writer, names []string, runs map[string][]childRun) bool {
	ok := true
	for _, name := range names {
		rs := runs[name]
		fmt.Fprintf(w, "\n== %s: agreement over %d runs\n", name, len(rs))
		var metricNames []string
		for m := range rs[0].result.Metrics {
			metricNames = append(metricNames, m)
		}
		sort.Strings(metricNames)
		for _, m := range metricNames {
			vals := make([]float64, len(rs))
			for i, r := range rs {
				vals[i] = r.result.Metrics[m].Value
			}
			sort.Float64s(vals)
			lo, med, hi := vals[0], median(vals), vals[len(vals)-1]
			spread := 0.0
			if med != 0 {
				spread = (hi - lo) / med
			}
			verdict := ""
			for _, s := range endToEnd {
				if s.Name == m && spread > s.Bound {
					verdict = fmt.Sprintf("  SPREAD OVER BOUND %g", s.Bound)
					ok = false
				}
			}
			fmt.Fprintf(w, "%-34s min %.6g  median %.6g  max %.6g  spread %.2f%%%s\n", m, lo, med, hi, spread*100, verdict)
		}
		for i, r := range rs {
			if r.verdicts != rs[0].verdicts || r.result.Failed != rs[0].result.Failed {
				fmt.Fprintf(w, "run %d disagrees with run 0 for one seed:\n  %s\n  %s\n", i, rs[0].verdicts, r.verdicts)
				ok = false
			}
		}
	}
	return ok
}
