package main

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"foces/internal/cluster"
)

// verdictTable extracts the per-period verdict table (header row
// included) from a focesd run's output, stopping at the trailing
// collection summary.
func verdictTable(t *testing.T, s string) []string {
	t.Helper()
	var rows []string
	in := false
	for _, ln := range strings.Split(s, "\n") {
		if strings.Contains(ln, "period") && strings.Contains(ln, "verdict") {
			in = true
		}
		if strings.HasPrefix(ln, "collection:") {
			break
		}
		if in {
			rows = append(rows, ln)
		}
	}
	if len(rows) < 2 {
		t.Fatalf("no verdict table found in:\n%s", s)
	}
	return rows
}

// goldenTableArgs is the schedule behind testdata/verdicts.golden: an
// attack, its repair and two rule updates on FatTree(4).
var goldenTableArgs = []string{
	"-topo", "fattree4",
	"-periods", "8",
	"-attack-at", "3",
	"-repair-at", "6",
	"-churn-every", "4",
	"-loss", "0",
	"-seed", "7",
}

// checkGoldenTable compares a run's verdict table with
// testdata/verdicts.golden, the table the daemon's former pull-poll
// loop printed for goldenTableArgs.
func checkGoldenTable(t *testing.T, out string) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "verdicts.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	got := verdictTable(t, out)
	if len(got) != len(want) {
		t.Fatalf("table rows: got %d, golden %d\ngot:\n%s", len(got), len(want), out)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("table row %d diverged:\ngot:    %q\ngolden: %q", i, got[i], want[i])
		}
	}
	if !strings.Contains(out, "stream: windows=") {
		t.Errorf("stream summary missing from:\n%s", out)
	}
}

// TestRunStreamMatchesPolledTable is the daemon-level equivalence gate:
// the same topology, seed and fault/churn schedule must print the
// verdict table the pull-poll loop printed, now that every window is
// pushed through the assembler and Serve.
func TestRunStreamMatchesPolledTable(t *testing.T) {
	var out strings.Builder
	if err := run(goldenTableArgs, &out); err != nil {
		t.Fatal(err)
	}
	checkGoldenTable(t, out.String())
}

// TestRunCoordinatorMatchesPolledTable runs the golden schedule in the
// coordinator role, with the sliced stage of every window sharded over
// two in-process detector nodes: the table must not change.
func TestRunCoordinatorMatchesPolledTable(t *testing.T) {
	var peers []string
	for i := 0; i < 2; i++ {
		node, err := cluster.NewNode("127.0.0.1:0", cluster.NodeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		peers = append(peers, node.Addr())
	}
	var out strings.Builder
	args := append([]string{"-role", "coordinator", "-peers", strings.Join(peers, ",")}, goldenTableArgs...)
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "cluster: coordinating 2 detector nodes") {
		t.Fatalf("coordinator did not reach both nodes:\n%s", s)
	}
	checkGoldenTable(t, s)
}

// TestRunStreamWithSampler smoke-tests the full streaming mode with the
// adaptive sampler enabled: clean traffic must stay quiet and some
// switches must leave every-window sampling.
func TestRunStreamWithSampler(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-sample",
		"-topo", "fattree4",
		"-periods", "10",
		"-attack-at", "0",
		"-loss", "0",
		"-seed", "3",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "ANOMALY") {
		t.Errorf("false alarm in sampled streaming mode:\n%s", s)
	}
	if !strings.Contains(s, "sampler: switches=") {
		t.Fatalf("sampler summary missing from:\n%s", s)
	}
	for _, ln := range strings.Split(s, "\n") {
		if strings.HasPrefix(ln, "sampler:") && strings.Contains(ln, "backedOff=0") {
			t.Errorf("no switch backed off over a clean run: %s", ln)
		}
	}
}

// TestRunStreamGracefulShutdown sends SIGINT mid-run: the pump must
// stop, queued windows must drain, and run must return nil after a
// clean teardown (including the metrics server, under its deadline).
func TestRunStreamGracefulShutdown(t *testing.T) {
	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-topo", "fattree4",
			"-periods", "100000",
			"-interval", "10ms",
			"-attack-at", "0",
			"-loss", "0",
			"-metrics-addr", "127.0.0.1:0",
		}, &out)
	}()
	// Let the daemon bootstrap and stream a few windows first.
	time.Sleep(500 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interrupted run returned %v\noutput:\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("streaming daemon did not shut down after SIGINT")
	}
	s := out.String()
	if !strings.Contains(s, "interrupted: drained") || !strings.Contains(s, "shut down cleanly") {
		t.Fatalf("graceful-shutdown notice missing from:\n%s", s)
	}
}
