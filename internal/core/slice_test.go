package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"foces/internal/controller"
	"foces/internal/dataplane"
	"foces/internal/fcm"
	"foces/internal/topo"
)

func TestBuildSlicesFig2Structure(t *testing.T) {
	f := fig2FCM(t)
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	// Every switch hosts exactly one rule, so 6 slices.
	if len(slices) != 6 {
		t.Fatalf("slices = %d, want 6", len(slices))
	}
	byID := make(map[topo.SwitchID]Slice, len(slices))
	for _, s := range slices {
		byID[s.Switch] = s
	}
	// S2's slice: V_out = {r2}; predecessor via flow a is r1;
	// flows matching {1,2} are a and b.
	s2 := byID[2]
	if len(s2.RuleRows) != 2 || s2.RuleRows[0] != 1 || s2.RuleRows[1] != 2 {
		t.Fatalf("S2 rows = %v, want [1 2]", s2.RuleRows)
	}
	if len(s2.FlowCols) != 2 || s2.FlowCols[0] != 0 || s2.FlowCols[1] != 1 {
		t.Fatalf("S2 cols = %v, want [0 1]", s2.FlowCols)
	}
	if s2.H.Rows() != 2 || s2.H.Cols() != 2 {
		t.Fatalf("S2 sub-FCM %dx%d", s2.H.Rows(), s2.H.Cols())
	}
	// S5's slice: V_out = {r5}; predecessors are r2 (flows a, b) and r4
	// (flow c); all flows match.
	s5 := byID[5]
	if len(s5.RuleRows) != 3 {
		t.Fatalf("S5 rows = %v", s5.RuleRows)
	}
	if len(s5.FlowCols) != 3 {
		t.Fatalf("S5 cols = %v", s5.FlowCols)
	}
}

func TestDetectSlicedFig2(t *testing.T) {
	f := fig2FCM(t)
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	// The Fig 2 anomalous counters: the deviated volume appears at r4
	// (row 3) which belongs to S3's slice.
	out, err := DetectSliced(slices, []float64{3, 3, 4, 3, 8, 12}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Anomalous {
		t.Fatal("sliced detection must flag the Fig 2 anomaly")
	}
	if len(out.Suspects) == 0 {
		t.Fatal("suspects must be reported")
	}
	if out.MaxIndex() <= 0 {
		t.Fatal("max index must be positive")
	}
	// Clean counters must pass every slice.
	clean, err := f.H.MulVec([]float64{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	out, err = DetectSliced(slices, clean, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Anomalous || len(out.Suspects) != 0 {
		t.Fatalf("clean counters flagged: %+v", out)
	}
	if out.MaxIndex() != 0 {
		t.Fatalf("clean max index = %v", out.MaxIndex())
	}
}

func TestDetectSlicedValidation(t *testing.T) {
	f := fig2FCM(t)
	slices, err := BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DetectSliced(slices, []float64{1}, Options{}); err == nil {
		t.Fatal("short counter vector must error")
	}
}

// runAttackScenario bootstraps a topology, runs clean traffic, then
// applies an attack and returns (fcm, cleanY, attackedY).
func runAttackScenario(t *testing.T, name string, seed int64) (*fcm.FCM, []float64, []float64) {
	t.Helper()
	top, err := topo.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, net, err := controller.Bootstrap(top, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fcm.Generate(top, layout, ctrl.Rules())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tm := dataplane.UniformTraffic(top, 1000)
	if _, err := net.Run(rng, tm); err != nil {
		t.Fatal(err)
	}
	clean := f.CounterVector(net.CollectCounters())
	net.ResetCounters()
	atk, err := dataplane.RandomAttack(rng, net, dataplane.AttackPortSwap)
	if err != nil {
		t.Fatal(err)
	}
	if err := atk.Apply(net); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(rng, tm); err != nil {
		t.Fatal(err)
	}
	attacked := f.CounterVector(net.CollectCounters())
	return f, clean, attacked
}

func TestSlicingEquivalenceTheorem3(t *testing.T) {
	// Theorem 3: anomalies detectable without slicing stay detectable
	// with slicing. Validated empirically across seeds and topologies.
	for _, name := range []string{"fattree4", "bcube14"} {
		for seed := int64(1); seed <= 5; seed++ {
			f, clean, attacked := runAttackScenario(t, name, seed)
			slices, err := BuildSlices(f)
			if err != nil {
				t.Fatal(err)
			}
			base, err := Detect(f.H, attacked, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sliced, err := DetectSliced(slices, attacked, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if base.Anomalous && !sliced.Anomalous {
				t.Fatalf("%s seed %d: baseline detected but slicing missed", name, seed)
			}
			// Clean counters must stay clean for both.
			baseClean, err := Detect(f.H, clean, Options{})
			if err != nil {
				t.Fatal(err)
			}
			slicedClean, err := DetectSliced(slices, clean, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if baseClean.Anomalous || slicedClean.Anomalous {
				t.Fatalf("%s seed %d: clean counters flagged (base=%v sliced=%v)",
					name, seed, baseClean.Anomalous, slicedClean.Anomalous)
			}
		}
	}
}

func TestSliceSubFCMSmallerThanFull(t *testing.T) {
	top, err := topo.ByName("fattree4")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(top, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.ComputeRules(); err != nil {
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
	if len(slices) == 0 {
		t.Fatal("no slices")
	}
	for _, s := range slices {
		if s.H.Rows() >= f.H.Rows() {
			t.Fatalf("switch %d slice has %d rows, full FCM %d — slicing must shrink",
				s.Switch, s.H.Rows(), f.H.Rows())
		}
		if s.H.Cols() > f.H.Cols() {
			t.Fatalf("slice has more columns than full FCM")
		}
	}
}

// TestMergeSliceResultsTiesKeepSliceOrder: suspects rank by descending
// index, equal indices (+Inf included) in slice order, and skipped or
// clean slices are left out of the ranking; PerSwitch keeps every
// slice that ran, in slice order.
func TestMergeSliceResultsTiesKeepSliceOrder(t *testing.T) {
	inf := math.Inf(1)
	set := make([]Slice, 7)
	for i := range set {
		set[i].Switch = topo.SwitchID(10 + i)
	}
	results := []Result{
		{Anomalous: true, Index: 6},
		{Anomalous: true, Index: inf},
		{Index: 2},
		{Anomalous: true, Index: 6},
		{Anomalous: true, Index: inf},
		{Anomalous: true, Index: 9}, // skipped
		{Anomalous: true, Index: 6},
	}
	skipped := make([]bool, len(set))
	skipped[5] = true
	out := MergeSliceResults(set, results, skipped)
	want := []topo.SwitchID{11, 14, 10, 13, 16}
	if !out.Anomalous || !reflect.DeepEqual(out.Suspects, want) {
		t.Fatalf("suspects %v (anomalous %v), want %v", out.Suspects, out.Anomalous, want)
	}
	if len(out.PerSwitch) != 6 || out.PerSwitch[5].Switch != 16 {
		t.Fatalf("PerSwitch = %+v", out.PerSwitch)
	}
	if clean := MergeSliceResults(set[2:3], results[2:3], nil); clean.Anomalous || clean.Suspects != nil {
		t.Fatalf("clean merge = %+v", clean)
	}
}

// TestSlicedOutcomeVectorsIndependent: a sliced run carves every
// slice's XHat, YHat and Delta from one block, and masked runs carve
// theirs from it too; appending to any of them must reallocate, never
// write into the vector carved after it.
func TestSlicedOutcomeVectorsIndependent(t *testing.T) {
	slices, numRules, clean, _ := engineFixture(t)
	sd, err := NewSlicedDetector(slices, numRules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sd.Detect(clean)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := sd.DetectMasked(clean, slices[0].OwnRows[:1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]SlicedOutcome{"plain": plain, "masked": masked} {
		var vecs [][]float64
		for _, ps := range out.PerSwitch {
			vecs = append(vecs, ps.Result.XHat, ps.Result.YHat, ps.Result.Delta)
		}
		for i := 0; i+1 < len(vecs); i++ {
			next := append([]float64(nil), vecs[i+1]...)
			_ = append(vecs[i], -7)
			if !reflect.DeepEqual(vecs[i+1], next) {
				t.Fatalf("%s run: appending to vector %d wrote into vector %d", name, i, i+1)
			}
		}
	}
}
