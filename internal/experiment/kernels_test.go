package experiment

import "testing"

// TestKernelsExperiment runs the kernels experiment on a small fabric
// and checks the equivalence flags and the shape of the trajectories.
func TestKernelsExperiment(t *testing.T) {
	res, err := Kernels(KernelsConfig{Topology: "fattree4", Repeats: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.VerdictsMatch {
		t.Error("serial- and parallel-prepared engines disagreed on probe verdicts")
	}
	if len(res.Serial.TotalSecs) != 2 || len(res.Parallel.TotalSecs) != 2 {
		t.Fatalf("trajectory lengths %d/%d, want 2", len(res.Serial.TotalSecs), len(res.Parallel.TotalSecs))
	}
	if res.Serial.BestTotalSecs <= 0 || res.Parallel.BestTotalSecs <= 0 {
		t.Fatalf("non-positive best prepare times: %v / %v", res.Serial.BestTotalSecs, res.Parallel.BestTotalSecs)
	}
	if res.PrepareSpeedup <= 0 {
		t.Fatalf("non-positive prepare speedup: %v", res.PrepareSpeedup)
	}
	if res.Rules == 0 || res.Slices == 0 || res.Flows == 0 {
		t.Fatalf("empty environment: %+v", res)
	}
}
