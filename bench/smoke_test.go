package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smokeConfig is a run short enough for go test: a dozen measured
// windows, one set-up, solve-ft16 on a FatTree(4) matrix.
func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the real chain over loopback; skipped under -short")
	}
	return runConfig{workload: workload, seed: 1, windows: 12, small: true, trace: trace, outDir: t.TempDir()}
}

func checkMetrics(t *testing.T, res *result, specs []metricSpec) {
	t.Helper()
	if res.failed != 0 {
		t.Errorf("%s: %d of %d windows failed: %v", res.workload, res.failed, res.attempted, res.failures)
	}
	for _, s := range specs {
		if _, ok := res.metrics[s.Name]; !ok {
			t.Errorf("%s: metric %s missing", res.workload, s.Name)
		}
	}
}

// TestSmoke runs every workload untraced, end to end: the paths are the
// expected ones (runWorkload aborts otherwise), every window agrees
// with the reference, every end-to-end metric is there and none is 0,
// and one seed gives one sequence of labels and verdicts.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		cfg := smokeConfig(t, wl.Name, false)
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		checkMetrics(t, res, endToEnd)
		for _, s := range endToEnd {
			if res.metrics[s.Name] <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", wl.Name, s.Name, res.metrics[s.Name])
			}
		}
		if res.samples != cfg.windows {
			t.Errorf("%s: %d windows timed, want %d", wl.Name, res.samples, cfg.windows)
		}
		var out bytes.Buffer
		printResult(&out, res, false)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last output line is not the result object: %v", wl.Name, err)
		}
		if !last.Correct || last.Attempted != res.attempted || len(last.Metrics) != len(endToEnd) {
			t.Errorf("%s: result object %+v", wl.Name, last)
		}
		// Attack labels and both engines' verdicts are a function of the
		// seed alone. The cheaper two workloads run a second time.
		if wl.Name == wlSteady || wl.Name == wlSolve {
			again, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s again: %v", wl.Name, err)
			}
			if !bytes.Equal(res.labels, again.labels) {
				t.Errorf("%s: labels %v, then %v, for one seed", wl.Name, res.labels, again.labels)
			}
		}
	}
}

// TestSmokeTraced runs a traced pass on the chain and on the solver:
// every per-layer metric is printed, the trace file parses, and per
// window the layer times add up to the window span.
func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{wlSteady, wlSolve} {
		cfg := smokeConfig(t, name, true)
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkMetrics(t, res, perLayer)
		if gap := res.metrics["trace.attribution_gap_pct"]; gap > 2 {
			t.Errorf("%s: layer times miss the window spans by %v%%", name, gap)
		}
		data, err := os.ReadFile(res.tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s: %v", res.tracePath, err)
		}
		counts := make(map[string]int)
		for i, s := range tf.Spans {
			counts[s.Name]++
			if s.EndNS < s.StartNS || s.Parent >= i {
				t.Fatalf("span %d %+v: ends before it starts, or precedes its parent", i, s)
			}
		}
		want := map[string]int{"window": cfg.windows, "core.full_prepare": 1}
		if name == wlSteady {
			want["collector.poll"] = cfg.windows
			want["foces.serve"] = cfg.windows
			want["core.sliced"] = cfg.windows
			want["openflow.flow_stats"] = 80 * cfg.windows
			want["fcm.generate"] = 1
		} else {
			want["core.detect"] = cfg.windows
		}
		for n, c := range want {
			if counts[n] != c {
				t.Errorf("%s: %d %s spans, want %d", name, counts[n], n, c)
			}
		}
	}
}
