package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"foces/internal/controller"
	"foces/internal/fcm"
	"foces/internal/matrix"
	"foces/internal/topo"
)

// factorBits reads the stored factor values of a prepared engine.
// PreparedLS keeps its factor unexported and a dual engine hands out no
// clone of it, so the test reads the values through reflect, which may
// read unexported fields but never write them.
func factorBits(p *matrix.PreparedLS) []uint64 {
	val := reflect.ValueOf(p).Elem().FieldByName("sp").Elem().FieldByName("val")
	bits := make([]uint64, val.Len())
	for i := range bits {
		bits[i] = math.Float64bits(val.Index(i).Float())
	}
	return bits
}

// TestKernelPrepareDeterminism: the factorization is serial and fixed
// by the Gram's structure, and the only parallelism in preparation is
// FanOut across independent engines, so preparing the full engine and
// every slice engine at GOMAXPROCS 1, 2 and 4 must give bitwise the
// same factor values and the same outcomes. Two systems: FatTree(4)
// under destination-aggregate rules, whose slices include the four
// Grams that fill in, and FatTree(8) pair-exact rules for 960 flows,
// whose slice Grams are diagonal.
func TestKernelPrepareDeterminism(t *testing.T) {
	top, err := topo.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(top, layout, controller.DestAggregate)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ComputeRules(); err != nil {
		t.Fatal(err)
	}
	agg, err := fcm.Generate(top, layout, ctrl.Rules())
	if err != nil {
		t.Fatal(err)
	}
	aggSlices, err := BuildSlices(agg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, agg.H.Cols())
	for j := range x {
		x[j] = float64(500 + rng.Intn(1000))
	}
	aggY, err := agg.H.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range aggY {
		aggY[i] *= 1 + 0.01*rng.NormFloat64()
	}
	ft8, ft8Slices, ft8Y := ft8Fixture(t)

	for _, sys := range []struct {
		name   string
		f      *fcm.FCM
		slices []Slice
		y      []float64
	}{
		{"fattree4-dest-aggregate", agg, aggSlices, aggY},
		{"fattree8-pair-exact", ft8, ft8Slices, ft8Y},
	} {
		tampered := append([]float64(nil), sys.y...)
		tampered[len(tampered)/2] *= 0.5
		type prepared struct {
			factors [][]uint64
			full    []Result
			sliced  []SlicedOutcome
		}
		prepare := func(procs int) prepared {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			d, err := NewDetector(sys.f.H, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sd, err := NewSlicedDetector(sys.slices, sys.f.NumRules(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			p := prepared{factors: [][]uint64{factorBits(d.Prepared())}}
			for _, e := range sd.engines {
				p.factors = append(p.factors, factorBits(e.Prepared()))
			}
			for _, y := range [][]float64{sys.y, tampered} {
				r, err := d.Detect(y)
				if err != nil {
					t.Fatal(err)
				}
				o, err := sd.Detect(y)
				if err != nil {
					t.Fatal(err)
				}
				p.full, p.sliced = append(p.full, r), append(p.sliced, o)
			}
			return p
		}
		want := prepare(1)
		for _, procs := range []int{2, 4} {
			got := prepare(procs)
			for i := range want.factors {
				if !reflect.DeepEqual(got.factors[i], want.factors[i]) {
					t.Fatalf("%s: engine %d factor differs between GOMAXPROCS 1 and %d", sys.name, i, procs)
				}
			}
			if !reflect.DeepEqual(got.full, want.full) || !reflect.DeepEqual(got.sliced, want.sliced) {
				t.Fatalf("%s: outcomes differ between GOMAXPROCS 1 and %d", sys.name, procs)
			}
		}
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
// persistent workers leave nothing per run beyond one block carved into
// every slice's result vectors and the merged outcome's arrays — a
// fixed count, whatever the number of slices.
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
	// The outcome block and PerSwitch; a clean window has no suspects.
	if allocs > 2 {
		t.Fatalf("sliced detect allocates %.0f per run over %d slices, want <= 2", allocs, len(slices))
	}
}
