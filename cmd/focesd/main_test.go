package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"foces"
)

func TestRunDetectsAndRecovers(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-topo", "fattree4",
		"-periods", "6",
		"-attack-at", "3",
		"-repair-at", "5",
		"-loss", "0",
		"-seed", "7",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "ANOMALY") {
		t.Errorf("no anomaly detected in:\n%s", s)
	}
	if !strings.Contains(s, "compromising switch") || !strings.Contains(s, "repaired") {
		t.Errorf("attack lifecycle missing from:\n%s", s)
	}
}

func TestRunNoAttack(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-topo", "fattree4", "-periods", "3", "-attack-at", "0", "-loss", "0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "ANOMALY") {
		t.Errorf("false alarm without attack:\n%s", out.String())
	}
}

func TestRunBadArgs(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-topo", "bogus"}, &out); err == nil {
		t.Fatal("bogus topology must error")
	}
	if err := run([]string{"-loss", "2"}, &out); err == nil {
		t.Fatal("bad loss must error")
	}
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("bad flag must error")
	}
}

func TestStatusServer(t *testing.T) {
	srv, err := startStatusServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Update(status{Period: 7, Anomalous: true, Index: 12.5})
	resp, err := http.Get("http://" + srv.Addr() + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Period != 7 || !st.Anomalous || st.Index != 12.5 {
		t.Fatalf("status = %+v", st)
	}
	if st.Suspects == nil {
		t.Fatal("suspects must encode as [], not null")
	}
	// Method guard.
	post, err := http.Post("http://"+srv.Addr()+"/status", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", post.StatusCode)
	}
}

func TestRunWithStatusAndBaseline(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	var out strings.Builder
	err := run([]string{
		"-topo", "fattree4", "-periods", "2", "-attack-at", "0", "-loss", "0",
		"-http", "127.0.0.1:0", "-save-baseline", baseline,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "status: http://") {
		t.Errorf("status address missing:\n%s", out.String())
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"version\"") {
		t.Error("baseline file malformed")
	}
	if _, _, _, _, err := foces.LoadBaseline(bytes.NewReader(data)); err != nil {
		t.Fatalf("baseline does not load: %v", err)
	}
}

func TestClampIndex(t *testing.T) {
	if clampIndex(math.Inf(1)) != 1e6 || clampIndex(2e7) != 1e6 || clampIndex(3) != 3 {
		t.Fatal("clamp wrong")
	}
}

// TestRunWithChurn drives live rule updates mid-run: updates must be
// absorbed incrementally, straddling windows must be reconciled (no
// false alarm without an attack), and the churn block must reach
// /status.
func TestRunWithChurn(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-topo", "fattree4",
		"-periods", "6",
		"-attack-at", "0",
		"-churn-every", "2",
		"-loss", "0",
		"-seed", "5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "ANOMALY") {
		t.Errorf("rule churn read as forwarding anomaly:\n%s", s)
	}
	if !strings.Contains(s, "rule churn epoch 1") || !strings.Contains(s, "rule churn epoch 3") {
		t.Errorf("churn epochs missing from:\n%s", s)
	}
	if !strings.Contains(s, "straddle rule updates") {
		t.Errorf("no straddling window reconciled in:\n%s", s)
	}
}
