package core

import (
	"math/rand"
	"runtime"
	"testing"

	"foces/internal/controller"
	"foces/internal/fcm"
	"foces/internal/matrix"
	"foces/internal/topo"
)

// ft8Fixture builds the benchmark's detection system — FatTree(8),
// pair-exact rules for the first 960 ordered host pairs, so every slice
// Gram is diagonal — and its slices, with one counter vector y = Hx
// under 1% multiplicative noise.
func ft8Fixture(t *testing.T) (*fcm.FCM, []Slice, []float64) {
	t.Helper()
	top, err := topo.FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]topo.HostID
	for _, src := range top.Hosts() {
		for _, dst := range top.Hosts() {
			if src.ID != dst.ID && len(pairs) < 960 {
				pairs = append(pairs, [2]topo.HostID{src.ID, dst.ID})
			}
		}
	}
	ctrl, err := controller.New(top, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ComputeRulesForPairs(pairs); err != nil {
		t.Fatal(err)
	}
	f, err := fcm.Generate(top, layout, ctrl.Rules())
	if err != nil {
		t.Fatal(err)
	}
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	x := make([]float64, f.H.Cols())
	for j := range x {
		x[j] = float64(500 + rng.Intn(1000))
	}
	y, err := f.H.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		y[i] *= 1 + 0.01*rng.NormFloat64()
	}
	return f, slices, y
}

// collect runs two garbage collections: the first moves whatever a
// sync.Pool holds to its victim cache, the second drops it.
func collect() {
	runtime.GC()
	runtime.GC()
}

// TestSlicedDetectAllocsSurviveGC: a warm sliced detector allocates the
// same per run whether or not the garbage collector ran in between —
// its run scratch, every slice engine's solve and median workspace
// included, sits on the detector's own free list, which no collection
// empties. Plain, masked and sequential runs alike. A collection
// allocates a little on its own (the runtime's cleanup of the unique
// package's maps), so that is measured and set aside first.
func TestSlicedDetectAllocsSurviveGC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f, slices, y := ft8Fixture(t)
	sd, err := NewSlicedDetector(slices, f.NumRules(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	masked := slices[len(slices)/2].OwnRows
	gcAllocs := testing.AllocsPerRun(20, collect)
	for name, run := range map[string]func(){
		"Detect": func() {
			if _, err := sd.Detect(y); err != nil {
				t.Fatal(err)
			}
		},
		"DetectMasked": func() {
			if _, err := sd.DetectMasked(y, masked, Options{}); err != nil {
				t.Fatal(err)
			}
		},
		"DetectSequential": func() {
			if _, err := sd.DetectSequential(y); err != nil {
				t.Fatal(err)
			}
		},
	} {
		run() // warm the free list and start the worker pool
		warm := testing.AllocsPerRun(20, run)
		afterGC := testing.AllocsPerRun(20, func() {
			collect()
			run()
		})
		// One more than the collections' own count absorbs AllocsPerRun's
		// rounding down of two averages.
		if afterGC > warm+gcAllocs+1 {
			t.Errorf("%s allocates %.0f per run, %.0f with a collection before each (the collections themselves: %.0f)", name, warm, afterGC, gcAllocs)
		}
	}
}

// TestCarriedEnginesFirstDetectAllocs: assembling a sliced detector over
// carried engines and running its first window — what every rule
// generation costs under churn — allocates a fixed number of arrays
// beyond a warm run, not a number that grows with the slice count.
func TestCarriedEnginesFirstDetectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f, slices, y := ft8Fixture(t)
	sd, err := NewSlicedDetector(slices, f.NumRules(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Detect(y); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(20, func() {
		if _, err := sd.Detect(y); err != nil {
			t.Fatal(err)
		}
	})
	first := testing.AllocsPerRun(20, func() {
		next, err := NewSlicedDetectorWithEngines(slices, sd.engines, f.NumRules(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := next.Detect(y); err != nil {
			t.Fatal(err)
		}
	})
	if extra := first - warm; extra > 24 {
		t.Errorf("a new generation's first run allocates %.0f more than a warm run over %d slices; want a fixed few", extra, len(slices))
	}
}

// TestDetectAllocBudget: a warm Detect allocates what it returns and
// nothing else — one array carved into XHat, YHat and Delta — on primal
// and dual engines alike. The three pieces must stay independently
// appendable.
func TestDetectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	for _, sh := range [][2]int{{120, 40}, {40, 120}} {
		rows, cols := sh[0], sh[1]
		var trips []matrix.Triplet
		for i := 0; i < rows; i++ {
			for k := 0; k < 4; k++ {
				trips = append(trips, matrix.Triplet{Row: i, Col: rng.Intn(cols), Val: 1})
			}
		}
		h, err := matrix.NewCSR(rows, cols, trips)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDetector(h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d.PrepareStats().Dual != (rows < cols) {
			t.Fatalf("%dx%d engine: dual=%v", rows, cols, d.PrepareStats().Dual)
		}
		y := make([]float64, rows)
		for i := range y {
			y[i] = float64(500 + rng.Intn(1000))
		}
		res, err := d.Detect(y) // also warms the scratch pool
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(50, func() {
			if _, err := d.Detect(y); err != nil {
				t.Fatal(err)
			}
		}); got > 1 {
			t.Errorf("%dx%d engine: Detect allocates %.0f per call, budget 1", rows, cols, got)
		}
		firstY, firstD := res.YHat[0], res.Delta[0]
		res.XHat = append(res.XHat, -1)
		res.YHat = append(res.YHat, -1)
		if res.YHat[0] != firstY || res.Delta[0] != firstD || len(res.Delta) != rows {
			t.Errorf("%dx%d engine: appending to XHat or YHat wrote into its neighbour", rows, cols)
		}
	}
}
