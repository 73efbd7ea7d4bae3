package core_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/dataplane"
	"foces/internal/fcm"
	"foces/internal/header"
	"foces/internal/matrix"
	"foces/internal/oracle"
	"foces/internal/topo"
)

// maskedScenario is one traffic window over FatTree(4): its counter
// vector, and whether a switch was compromised while it was taken.
type maskedScenario struct {
	name     string
	y        []float64
	attacked bool
}

// observeWindows bootstraps topoName under mode and returns its FCM
// with one clean and one attacked lossless traffic window.
func observeWindows(t *testing.T, topoName string, mode controller.PolicyMode) (*topo.Topology, *fcm.FCM, []maskedScenario, *dataplane.Attack) {
	t.Helper()
	layout := header.FiveTuple()
	top, err := topo.ByName(topoName)
	if err != nil {
		t.Fatal(err)
	}
	var f *fcm.FCM
	observe := func(seed int64, attack bool) ([]float64, *dataplane.Attack) {
		ctrl, net, err := controller.Bootstrap(top, layout, mode)
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			if f, err = fcm.Generate(top, layout, ctrl.Rules()); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var atk *dataplane.Attack
		if attack {
			a, err := dataplane.RandomAttack(rng, net, dataplane.AttackDrop)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Apply(net); err != nil {
				t.Fatal(err)
			}
			atk = &a
		}
		if _, err := net.Run(rng, dataplane.UniformTraffic(top, 1000)); err != nil {
			t.Fatal(err)
		}
		return f.CounterVector(net.CollectCounters()), atk
	}
	yClean, _ := observe(1, false)
	yAttacked, atk := observe(2, true)
	return top, f, []maskedScenario{{"clean", yClean, false}, {"attacked", yAttacked, true}}, atk
}

// maskedFixture builds the FCM, slices, a clean and an attacked window,
// and the named row masks the table runs. Every mask avoids the
// attacker and its neighbours, so the attack's footprint stays on
// unmasked rows and "still caught" is a property, not luck.
func maskedFixture(t *testing.T) (f *fcm.FCM, slices []core.Slice, scenarios []maskedScenario, masks map[string][]int) {
	t.Helper()
	top, f, scenarios, atk := observeWindows(t, "fattree4", controller.PairExact)
	slices, err := core.BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}

	// Switches far from the attack: neither the attacker nor a neighbour.
	near := map[topo.SwitchID]bool{atk.Switch: true}
	for _, n := range top.Neighbors(atk.Switch) {
		near[n] = true
	}
	var far []topo.SwitchID
	for _, sl := range slices {
		if !near[sl.Switch] {
			far = append(far, sl.Switch)
		}
	}
	if len(far) < 3 {
		t.Fatalf("only %d switches away from the attack", len(far))
	}
	missing, blinded := far[0], far[len(far)-1]
	// "Churned" rows: every rule of one multi-hop flow that stays clear
	// of the attack and of the missing switch — the affected set a
	// mid-window rewrite of that flow's path would produce.
	var churned []int
	for _, fl := range f.Flows {
		ok := len(fl.RuleIDs) >= 3
		for _, rid := range fl.RuleIDs {
			if sw := f.Rules[rid].Switch; near[sw] || sw == missing {
				ok = false
			}
		}
		if ok {
			churned = append(churned, fl.RuleIDs...)
			break
		}
	}
	if len(churned) == 0 {
		t.Fatal("no multi-hop flow clear of the attack")
	}
	var blindedOwn []int
	for _, sl := range slices {
		if sl.Switch == blinded {
			blindedOwn = sl.OwnRows
		}
	}
	all := make([]int, f.NumRules())
	for i := range all {
		all[i] = i
	}
	masks = map[string][]int{
		"empty":              nil,
		"one-switch-missing": oracle.SwitchRows(f, []topo.SwitchID{missing}),
		"churned-rows":       churned,
		"missing-and-churn":  append(oracle.SwitchRows(f, []topo.SwitchID{missing}), churned...),
		"slice-own-rows":     blindedOwn,
		"all-rows":           all,
	}
	return f, slices, scenarios, masks
}

// maskedEngines prepares the full and sliced engines under test.
func maskedEngines(t *testing.T, f *fcm.FCM, slices []core.Slice) (*core.Detector, *core.SlicedDetector) {
	t.Helper()
	full, err := core.NewDetector(f.H, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := core.NewSlicedDetector(slices, f.NumRules(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return full, sliced
}

// coldReferences are the two cold answers every masked engine result
// is held to, named by the factorization each uses. "sparse" is the
// oracle's default, core.Detect on the row-selected system: the
// engines' own sparse Cholesky, but factored from scratch instead of
// prepared and downdated. "dense" is oracle.DenseDetect: the Gram
// formed densely and factored by matrix.NewCholesky, sharing no
// factorization code with the engines.
var coldReferences = []struct {
	name  string
	solve oracle.Solver
}{{"dense", oracle.DenseDetect}, {"sparse", core.Detect}}

// requireOracleResult: a masked full-engine result is the oracle's —
// same verdict, index within 1e-9 relative, and a Delta that spans all
// numRows rows with the oracle's positional residuals on the kept rows
// and zero on the masked ones.
func requireOracleResult(t *testing.T, got, want core.Result, kept []int, numRows int) {
	t.Helper()
	if got.Anomalous != want.Anomalous || !oracle.SameIndex(got.Index, want.Index) {
		t.Fatalf("verdict (%v, %v), oracle (%v, %v)", got.Anomalous, got.Index, want.Anomalous, want.Index)
	}
	if len(got.Delta) != numRows {
		t.Fatalf("Delta has %d entries, want %d", len(got.Delta), numRows)
	}
	tol := 1e-9 * (1 + want.ErrMax)
	visible := make([]bool, numRows)
	for k, rid := range kept {
		visible[rid] = true
		if math.Abs(got.Delta[rid]-want.Delta[k]) > tol {
			t.Fatalf("row %d residual %v, oracle %v", rid, got.Delta[rid], want.Delta[k])
		}
	}
	for rid, d := range got.Delta {
		if !visible[rid] && d != 0 {
			t.Fatalf("masked row %d carries residual %v", rid, d)
		}
	}
}

// requireOracleOutcome: a masked sliced outcome is the oracle's — same
// verdict and suspects, the same slices checked, each with the oracle's
// verdict and index.
func requireOracleOutcome(t *testing.T, got, want core.SlicedOutcome) {
	t.Helper()
	if got.Anomalous != want.Anomalous || !reflect.DeepEqual(got.Suspects, want.Suspects) {
		t.Fatalf("verdict (%v, %v), oracle (%v, %v)", got.Anomalous, got.Suspects, want.Anomalous, want.Suspects)
	}
	if len(got.PerSwitch) != len(want.PerSwitch) {
		t.Fatalf("checked %d slices, oracle %d", len(got.PerSwitch), len(want.PerSwitch))
	}
	for i, g := range got.PerSwitch {
		w := want.PerSwitch[i]
		if g.Switch != w.Switch || g.Result.Anomalous != w.Result.Anomalous || !oracle.SameIndex(g.Result.Index, w.Result.Index) {
			t.Fatalf("slice %d: (%d, %v, %v), oracle (%d, %v, %v)", i,
				g.Switch, g.Result.Anomalous, g.Result.Index, w.Switch, w.Result.Anomalous, w.Result.Index)
		}
	}
}

// TestMaskedDetectionMatchesColdOracle is the one correctness gate of
// the row-mask path. For every mask × engine × cold reference × window
// it asks the prepared engines (downdated factors, pooled workers,
// slice-local masks) and the cold oracle (explicit row selection,
// factor from scratch, through either reference factorization) the
// same question and requires the same verdict,
// indices within 1e-9 relative, the same slices checked and the same
// suspects. The rows double as the behaviours the per-path suites used
// to pin one by one: an empty mask is plain detection; a missing switch
// neither raises a false alarm nor hides an attack elsewhere; its slice
// is skipped and never a suspect; masking everything is an error.
func TestMaskedDetectionMatchesColdOracle(t *testing.T) {
	f, slices, scenarios, masks := maskedFixture(t)
	full, sliced := maskedEngines(t, f, slices)
	for _, ref := range coldReferences {
		for maskName, masked := range masks {
			for _, sc := range scenarios {
				t.Run(maskName+"/full/"+ref.name+"/"+sc.name, func(t *testing.T) {
					got, err := full.DetectMasked(sc.y, masked, core.Options{})
					want, kept, wantErr := ref.solve.Detect(f.H, sc.y, masked, core.Options{})
					if maskName == "all-rows" {
						if err == nil || wantErr == nil {
							t.Fatalf("all rows masked must error: engine %v, oracle %v", err, wantErr)
						}
						return
					}
					if err != nil || wantErr != nil {
						t.Fatalf("engine %v, oracle %v", err, wantErr)
					}
					requireOracleResult(t, got, want, kept, f.NumRules())
					if got.Anomalous != sc.attacked {
						t.Fatalf("anomalous=%v on a %s window (index %v)", got.Anomalous, sc.name, got.Index)
					}
					if maskName == "empty" {
						plain, err := full.Detect(sc.y)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, plain) {
							t.Fatal("empty mask diverged from plain Detect")
						}
					}
				})
				t.Run(maskName+"/sliced/"+ref.name+"/"+sc.name, func(t *testing.T) {
					got, err := sliced.DetectMasked(sc.y, masked, core.Options{})
					want, wantErr := ref.solve.DetectSliced(f, slices, sc.y, masked, core.Options{})
					if maskName == "all-rows" {
						if err == nil || wantErr == nil {
							t.Fatalf("all rows masked must error: engine %v, oracle %v", err, wantErr)
						}
						return
					}
					if err != nil || wantErr != nil {
						t.Fatalf("engine %v, oracle %v", err, wantErr)
					}
					requireOracleOutcome(t, got, want)
					if got.Anomalous != sc.attacked || (sc.attacked && len(got.Suspects) == 0) {
						t.Fatalf("anomalous=%v suspects=%v on a %s window", got.Anomalous, got.Suspects, sc.name)
					}
					// A switch with every own rule masked is skipped: not
					// checked, so never a suspect.
					wantSkipped := map[string]int{"one-switch-missing": 1, "missing-and-churn": 1, "slice-own-rows": 1}[maskName]
					if len(got.PerSwitch) != len(slices)-wantSkipped {
						t.Fatalf("checked %d of %d slices, want %d skipped", len(got.PerSwitch), len(slices), wantSkipped)
					}
					if maskName == "empty" {
						plain, err := sliced.DetectSequential(sc.y)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, plain) {
							t.Fatal("empty mask diverged from plain sequential Detect")
						}
					}
				})
			}
		}
	}
}

// TestMaskedRejectsOutOfRangeRows: mask indices come from collection
// and churn state outside the engines, so both engines bounds-check
// them instead of indexing.
func TestMaskedRejectsOutOfRangeRows(t *testing.T) {
	f, slices, scenarios, _ := maskedFixture(t)
	full, sliced := maskedEngines(t, f, slices)
	for _, bad := range [][]int{{-1}, {f.NumRules()}} {
		if _, err := full.DetectMasked(scenarios[0].y, bad, core.Options{}); err == nil {
			t.Fatalf("full engine accepted masked row %d", bad[0])
		}
		if _, err := sliced.DetectMasked(scenarios[0].y, bad, core.Options{}); err == nil {
			t.Fatalf("sliced engine accepted masked row %d", bad[0])
		}
	}
}

// TestMaskedWideEnginesMatchColdOracle runs the row-mask path over
// engines prepared in dual form — DCell under destination-aggregate
// rules, where every slice has fewer rules than flows, and a full
// engine over the rules of most of its switches plus one rule no flow
// matches. A dual engine has no HᵀH factor to downdate, so every mask
// takes the cold fallback; the table pins that it still answers as the
// oracle does with one row, several rows, an all-zero row and all but
// one row masked, and refuses a mask that hides everything, against
// both cold references.
func TestMaskedWideEnginesMatchColdOracle(t *testing.T) {
	_, f, scenarios, _ := observeWindows(t, "dcell14", controller.DestAggregate)
	slices, err := core.BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}

	// The full engine: H restricted to the first 350 of 500 rules (wide
	// against 380 flows), then a trailing all-zero row.
	const monitored = 350
	var trips []matrix.Triplet
	for r := 0; r < monitored; r++ {
		f.H.RowEntries(r, func(col int, v float64) {
			trips = append(trips, matrix.Triplet{Row: r, Col: col, Val: v})
		})
	}
	zeroRow := monitored
	wideH, err := matrix.NewCSR(monitored+1, f.H.Cols(), trips)
	if err != nil {
		t.Fatal(err)
	}
	allButOne := func(n, keep int) []int {
		var rows []int
		for i := 0; i < n; i++ {
			if i != keep {
				rows = append(rows, i)
			}
		}
		return rows
	}
	fullMasks := map[string][]int{
		"one-row":          {3},
		"several-rows":     {0, 5, 9, 17, 120, 349},
		"zero-row":         {zeroRow},
		"zero-row-and-two": {zeroRow, 7, 8},
		"all-but-one":      allButOne(wideH.Rows(), 2),
		"all-rows":         allButOne(wideH.Rows(), -1),
	}
	slicedMasks := map[string][]int{
		"one-row":            {3},
		"several-rows":       {0, 5, 9, 17, 120, 349},
		"one-switch-missing": oracle.SwitchRows(f, []topo.SwitchID{slices[4].Switch}),
		"all-but-one":        allButOne(f.NumRules(), slices[0].OwnRows[0]),
		"all-rows":           allButOne(f.NumRules(), -1),
	}

	prepare := func(h *matrix.CSR) *core.Detector {
		d, err := core.NewDetector(h, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st := d.PrepareStats(); !st.Dual {
			t.Fatalf("%dx%d engine: stats %+v", h.Rows(), h.Cols(), st)
		}
		return d
	}
	full := prepare(wideH)
	engines := make([]*core.Detector, len(slices))
	for i, sl := range slices {
		engines[i] = prepare(sl.H)
	}
	sliced, err := core.NewSlicedDetectorWithEngines(slices, engines, f.NumRules(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range coldReferences {
		for _, sc := range scenarios {
			yWide := append(append([]float64(nil), sc.y[:monitored]...), 0)
			for maskName, masked := range fullMasks {
				t.Run(maskName+"/full/"+ref.name+"/"+sc.name, func(t *testing.T) {
					got, err := full.DetectMasked(yWide, masked, core.Options{})
					want, kept, wantErr := ref.solve.Detect(wideH, yWide, masked, core.Options{})
					if maskName == "all-rows" {
						if err == nil || wantErr == nil {
							t.Fatalf("all rows masked must error: engine %v, oracle %v", err, wantErr)
						}
						return
					}
					if err != nil || wantErr != nil {
						t.Fatalf("engine %v, oracle %v", err, wantErr)
					}
					requireOracleResult(t, got, want, kept, wideH.Rows())
				})
			}
			for maskName, masked := range slicedMasks {
				t.Run(maskName+"/sliced/"+ref.name+"/"+sc.name, func(t *testing.T) {
					got, err := sliced.DetectMasked(sc.y, masked, core.Options{})
					want, wantErr := ref.solve.DetectSliced(f, slices, sc.y, masked, core.Options{})
					if maskName == "all-rows" {
						if err == nil || wantErr == nil {
							t.Fatalf("all rows masked must error: engine %v, oracle %v", err, wantErr)
						}
						return
					}
					if err != nil || wantErr != nil {
						t.Fatalf("engine %v, oracle %v", err, wantErr)
					}
					requireOracleOutcome(t, got, want)
				})
			}
		}
	}
}
