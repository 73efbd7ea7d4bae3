package core

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// engineFixture returns slices plus one clean and one anomalous counter
// vector over the fattree4 scenario.
func engineFixture(t *testing.T) ([]Slice, int, []float64, []float64) {
	t.Helper()
	f, clean, attacked := runAttackScenario(t, "fattree4", 3)
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	return slices, f.NumRules(), clean, attacked
}

func TestDetectorMatchesFreeDetect(t *testing.T) {
	f, clean, attacked := runAttackScenario(t, "fattree4", 1)
	d, err := NewDetector(f.H, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range [][]float64{clean, attacked} {
		want, err := Detect(f.H, y, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.Detect(y)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("prepared result diverged:\n got %+v\nwant %+v", got, want)
		}
		// Repeated detection against the same factorization stays stable.
		again, err := d.Detect(y)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatal("second prepared detection diverged")
		}
	}
}

func TestDetectorPerCallOptions(t *testing.T) {
	f := fig2FCM(t)
	d, err := NewDetector(f.H, Options{})
	if err != nil {
		t.Fatal(err)
	}
	y := []float64{3, 3, 4, 3, 8, 12} // the Fig. 2 anomaly
	res, err := d.Detect(y)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Anomalous {
		t.Fatal("Fig. 2 anomaly must be flagged at the default threshold")
	}
	// A per-call threshold above the index suppresses the verdict
	// without re-preparing.
	high, err := d.DetectWithOptions(y, Options{Threshold: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if high.Anomalous {
		t.Fatal("infinite threshold must suppress the verdict")
	}
	if high.Index != res.Index {
		t.Fatalf("index must not depend on threshold: %v vs %v", high.Index, res.Index)
	}
}

func TestDetectorDegenerateShapes(t *testing.T) {
	// Zero-column slice H (rules outside all flow paths): observed
	// volume is unexplainable.
	f := fig2FCM(t)
	sub, err := f.H.SubMatrix([]int{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Detect([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Detect(sub, []float64{5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("zero-column engine %+v != free %+v", res, want)
	}
	if !res.Anomalous {
		t.Fatal("unexplainable volume on a zero-column slice must be anomalous")
	}
	// Dimension mismatch must error like the free function.
	if _, err := d.Detect([]float64{1, 2}); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestSlicedDetectorParallelMatchesSequential(t *testing.T) {
	slices, numRules, clean, attacked := engineFixture(t)
	sd, err := NewSlicedDetector(slices, numRules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sd.Workers() < 1 || sd.NumSlices() != len(slices) {
		t.Fatalf("workers=%d slices=%d", sd.Workers(), sd.NumSlices())
	}
	for _, y := range [][]float64{clean, attacked} {
		seq, err := sd.DetectSequential(y)
		if err != nil {
			t.Fatal(err)
		}
		par, err := sd.Detect(y)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("parallel outcome diverged from sequential:\n par %+v\n seq %+v", par, seq)
		}
		// And both must match the historical free function exactly.
		free, err := DetectSliced(slices, y, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, free) {
			t.Fatal("engine outcome diverged from free DetectSliced")
		}
	}
}

func TestSlicedDetectorConcurrentUse(t *testing.T) {
	slices, numRules, clean, attacked := engineFixture(t)
	sd, err := NewSlicedDetector(slices, numRules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantClean, err := sd.DetectSequential(clean)
	if err != nil {
		t.Fatal(err)
	}
	wantAttacked, err := sd.DetectSequential(attacked)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				y, want := clean, wantClean
				if (g+r)%2 == 1 {
					y, want = attacked, wantAttacked
				}
				out, err := sd.Detect(y)
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(out, want) {
					errCh <- errMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// errMismatch keeps the concurrent test allocation-simple.
var errMismatch = errString("concurrent outcome diverged from sequential reference")

type errString string

func (e errString) Error() string { return string(e) }

func TestSlicedDetectorBuildTimeValidation(t *testing.T) {
	slices, numRules, clean, _ := engineFixture(t)
	// RuleRows outside the counter vector are rejected at build time.
	if _, err := NewSlicedDetector(slices, 1, Options{}); err == nil {
		t.Fatal("out-of-range RuleRows must fail the build")
	}
	sd, err := NewSlicedDetector(slices, numRules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong-length counter vectors are rejected per call.
	if _, err := sd.Detect(clean[:numRules-1]); err == nil {
		t.Fatal("short counter vector must error")
	}
}

// TestRetiredSlicedDetectorFreesEngines: one collection after a sliced
// detector is dropped, its slice engines (the factors) are unreachable.
// Under rule churn each generation's detector runs a masked window on
// the worker pool and is then retired, so anything that keeps a retired
// detector for an extra cycle is a standing tax on the live heap. Two
// things must not: the finalizer that stops the worker pool, which sits
// on a small object of its own because an object with a finalizer
// survives the collection that finds it unreachable; and the run
// scratch, which points back at its detector and so is kept on the
// detector's own free list — a sync.Pool would hand it to its victim
// cache and keep the detector live one collection longer.
func TestRetiredSlicedDetectorFreesEngines(t *testing.T) {
	slices, numRules, clean, _ := engineFixture(t)
	sd, err := NewSlicedDetector(slices, numRules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sd.Workers() < 2 {
		t.Skip("one worker: the pool (and its finalizer) never starts")
	}
	if _, err := sd.DetectMasked(clean, []int{slices[0].RuleRows[0]}, Options{}); err != nil {
		t.Fatal(err)
	}
	if sd.stop == nil {
		t.Fatal("a masked window did not run on the worker pool")
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(sd.engines[0], func(*Detector) { close(freed) })
	sd = nil
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("slice engines still live one collection after the detector was dropped")
	}
}
