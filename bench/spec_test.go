package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestListMatchesBenchmarkJSON holds -list and BENCHMARK.json together:
// same workloads, same metrics, same units, directions and bounds, in
// the same order.
func TestListMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, w := range bj.Workloads {
		want.WriteString("workload\t" + w.Name + "\n")
	}
	for _, m := range bj.EndToEnd {
		want.WriteString("end_to_end\t" + m.Name + "\t" + m.Unit + "\t" + m.Better + "\t" + strconv.FormatFloat(m.Bound, 'g', -1, 64) + "\n")
	}
	for _, m := range bj.PerLayer {
		want.WriteString("per_layer\t" + m.Name + "\t" + m.Unit + "\t" + m.Better + "\n")
	}
	var got bytes.Buffer
	if code := realMain([]string{"-list"}, &got, &got); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if got.String() != want.String() {
		t.Errorf("-list and BENCHMARK.json differ.\n-list:\n%s\nBENCHMARK.json:\n%s", got.String(), want.String())
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && w.Why != workloads[i].Why {
			t.Errorf("workload %s: why differs between spec.go and BENCHMARK.json", w.Name)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		name := strings.Split(line, "\t")[1]
		for _, r := range name {
			ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '.' || r == '-'
			if !ok {
				t.Errorf("name %q uses %q", name, r)
			}
		}
	}
}
