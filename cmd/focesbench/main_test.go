package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTable1WithCSV(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-exp", "table1", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table I") {
		t.Errorf("missing header:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Stanford,26,26,650") {
		t.Errorf("csv content wrong:\n%s", data)
	}
}

func TestRunFig12WithFlowList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig12", "-flows", "120,240"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "120") || !strings.Contains(s, "240") {
		t.Errorf("flow sweep missing:\n%s", s)
	}
}

func TestRunLocalizationSmall(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "loc", "-runs", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "localization") {
		t.Errorf("missing section:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "bogus"}, &out); err == nil {
		t.Fatal("unknown experiment must error")
	}
	if err := run([]string{"-flows", "x"}, &out); err == nil {
		t.Fatal("bad flow list must error")
	}
	if err := run([]string{"-zzz"}, &out); err == nil {
		t.Fatal("bad flag must error")
	}
}

func TestRunChurnWritesTrajectory(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-exp", "churn", "-runs", "3", "-flows", "120", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dynamic networks") || !strings.Contains(out.String(), "median speedup") {
		t.Errorf("missing section:\n%s", out.String())
	}
	blob, err := os.ReadFile(filepath.Join(dir, "churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"topology": "FatTree(8)"`, `"medianSpeedup"`, `"incrementalSecs"`, `"verdictMatch": true`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("churn.json missing %s:\n%s", want, blob)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "churn.csv")); err != nil {
		t.Error(err)
	}
}

func TestRunAllExperimentsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment smoke is slow")
	}
	dir := t.TempDir()
	var out strings.Builder
	for _, exp := range []string{"fig7", "fig8", "fig9", "fig10", "coverage", "overhead"} {
		if err := run([]string{"-exp", exp, "-runs", "2", "-csv", dir}, &out); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	for _, want := range []string{"Fig 7", "Fig 8", "Fig 9", "Fig 10", "Fig 11", "coverage", "deployment-cost"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
