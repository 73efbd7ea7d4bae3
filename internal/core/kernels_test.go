package core

import (
	"reflect"
	"testing"

	"foces/internal/matrix"
)

// TestKernelPrepareDeterminism is the tentpole equivalence gate:
// preparing the baseline with 1 kernel worker and with many must yield
// byte-identical Detector outcomes, because parallel Gram is bitwise
// equal to serial and blocked-Cholesky dispatch never consults the
// worker count. Run under -race -count=2 by make test-kernels.
func TestKernelPrepareDeterminism(t *testing.T) {
	f, clean, attacked := runAttackScenario(t, "fattree4", 3)
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		d  *Detector
		sd *SlicedDetector
	}
	build := func(o matrix.KernelOptions) pair {
		prev := matrix.SetKernelDefaults(o)
		defer matrix.SetKernelDefaults(prev)
		d, err := NewDetector(f.H, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sd, err := NewSlicedDetector(slices, f.NumRules(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return pair{d: d, sd: sd}
	}
	serial := build(matrix.KernelOptions{Workers: 1})
	parallel := build(matrix.KernelOptions{Workers: 8})
	forced := build(matrix.KernelOptions{Serial: true, BlockSize: 32})
	_ = forced // exercised below only for verdict agreement
	for name, y := range map[string][]float64{"clean": clean, "attacked": attacked} {
		wantFull, err := serial.d.Detect(y)
		if err != nil {
			t.Fatal(err)
		}
		gotFull, err := parallel.d.Detect(y)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantFull, gotFull) {
			t.Fatalf("%s: full outcome differs between 1 and 8 prepare workers", name)
		}
		wantSliced, err := serial.sd.Detect(y)
		if err != nil {
			t.Fatal(err)
		}
		gotSliced, err := parallel.sd.Detect(y)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantSliced, gotSliced) {
			t.Fatalf("%s: sliced outcome differs between 1 and 8 prepare workers", name)
		}
		// The forced-serial reference kernels may differ in float dust
		// (unblocked vs blocked factor) but never in verdict.
		refFull, err := forced.d.Detect(y)
		if err != nil {
			t.Fatal(err)
		}
		if refFull.Anomalous != wantFull.Anomalous {
			t.Fatalf("%s: serial reference verdict %v vs kernel verdict %v", name, refFull.Anomalous, wantFull.Anomalous)
		}
	}
}

// TestKernelDetectBatchMatchesLoop checks the batched multi-RHS path
// returns results byte-identical to per-window Detect calls.
func TestKernelDetectBatchMatchesLoop(t *testing.T) {
	f, clean, attacked := runAttackScenario(t, "fattree4", 5)
	d, err := NewDetector(f.H, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scaled := make([]float64, len(clean))
	for i, v := range clean {
		scaled[i] = v * 1.5
	}
	ys := [][]float64{clean, attacked, scaled, clean}
	batch, err := d.DetectBatch(ys)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ys) {
		t.Fatalf("batch returned %d results for %d windows", len(batch), len(ys))
	}
	for r, y := range ys {
		want, err := d.Detect(y)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, batch[r]) {
			t.Fatalf("window %d: batch result diverged from loop:\n got %+v\nwant %+v", r, batch[r], want)
		}
	}
	// The batch must not have perturbed the engine for later singles.
	again, err := d.Detect(attacked)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Anomalous {
		t.Fatal("attacked window no longer anomalous after batch")
	}
}

// TestKernelDetectBatchFallbacks covers the windows that cannot take
// the multi-RHS solve: empty batches, CG solver, and dimension errors.
func TestKernelDetectBatchFallbacks(t *testing.T) {
	f, clean, attacked := runAttackScenario(t, "fattree4", 7)
	d, err := NewDetector(f.H, Options{Solver: SolverCG})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := d.DetectBatch(nil); err != nil || res != nil {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
	ys := [][]float64{clean, attacked}
	batch, err := d.DetectBatch(ys)
	if err != nil {
		t.Fatal(err)
	}
	for r, y := range ys {
		want, err := d.Detect(y)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, batch[r]) {
			t.Fatalf("CG window %d: batch diverged from loop", r)
		}
	}
	if _, err := d.DetectBatch([][]float64{clean[:3]}); err == nil {
		t.Fatal("short window accepted")
	}
}

// TestKernelSlicedPersistentPool drives many detections through the
// persistent worker pool, interleaved with sequential runs, and checks
// every parallel outcome against the sequential reference (also a
// regression net for job-state reuse across runs).
func TestKernelSlicedPersistentPool(t *testing.T) {
	slices, numRules, clean, attacked := engineFixture(t)
	sd, err := NewSlicedDetector(slices, numRules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		y := clean
		if round%2 == 1 {
			y = attacked
		}
		want, err := sd.DetectSequential(y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sd.Detect(y)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: pooled outcome diverged from sequential", round)
		}
	}
}

// TestKernelSlicedDetectAllocationFlat asserts steady-state sliced
// detection allocates only its returned outcome: the recycled run
// scratch (gathers, workspaces, results, errors, dispatch job) plus the
// persistent workers leave nothing per-run beyond the per-slice result
// vectors.
func TestKernelSlicedDetectAllocationFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	slices, numRules, clean, _ := engineFixture(t)
	sd, err := NewSlicedDetector(slices, numRules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm the run scratch and the worker pool
		if _, err := sd.Detect(clean); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sd.Detect(clean); err != nil {
			t.Fatal(err)
		}
	})
	// Each slice's Result carries 2 fresh arrays (XHat, and one shared by
	// YHat and Delta) plus outcome assembly; everything else must be
	// recycled.
	bound := float64(3*len(slices) + 32)
	if allocs > bound {
		t.Fatalf("sliced detect allocates %.0f per run, want <= %.0f (slices=%d)", allocs, bound, len(slices))
	}
}
