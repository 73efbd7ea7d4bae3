package matrix_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/fcm"
	"foces/internal/header"
	"foces/internal/matrix"
	"foces/internal/oracle"
	"foces/internal/topo"
)

// dispatchSystem is one rule set the prepared engines are checked on: its FCM and per-switch slices, the rows masked in the
// masked windows (nil: no masked windows), and whether its rules
// aggregate flows by destination.
type dispatchSystem struct {
	name      string
	f         *fcm.FCM
	slices    []core.Slice
	masks     [][]int
	aggregate bool
}

// dispatchFCM generates the FCM of topoName under mode; pairs > 0
// restricts pair-exact rules to the first pairs ordered host pairs.
func dispatchFCM(t *testing.T, topoName string, mode controller.PolicyMode, pairs int) (*fcm.FCM, []core.Slice) {
	t.Helper()
	layout := header.FiveTuple()
	top, err := topo.ByName(topoName)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := controller.New(top, layout, mode)
	if err != nil {
		t.Fatal(err)
	}
	if pairs > 0 {
		var ps [][2]topo.HostID
		for _, src := range top.Hosts() {
			for _, dst := range top.Hosts() {
				if src.ID != dst.ID && len(ps) < pairs {
					ps = append(ps, [2]topo.HostID{src.ID, dst.ID})
				}
			}
		}
		err = ctrl.ComputeRulesForPairs(ps)
	} else {
		err = ctrl.ComputeRules()
	}
	if err != nil {
		t.Fatal(err)
	}
	f, err := fcm.Generate(top, layout, ctrl.Rules())
	if err != nil {
		t.Fatal(err)
	}
	slices, err := core.BuildSlices(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, slices
}

// dispatchWindows returns a clean counter vector y = Hx under 1%
// multiplicative noise and the same with one counter halved.
func dispatchWindows(rng *rand.Rand, h *matrix.CSR) [][]float64 {
	x := make([]float64, h.Cols())
	for j := range x {
		x[j] = float64(500 + rng.Intn(1000))
	}
	clean, _ := h.MulVec(x)
	for i := range clean {
		clean[i] *= 1 + 0.01*rng.NormFloat64()
	}
	tampered := append([]float64(nil), clean...)
	tampered[rng.Intn(len(tampered))] *= 0.5
	return [][]float64{clean, tampered}
}

// TestPreparedEnginesMatchDenseOracle drives PrepareLS's one factor
// backend against the dense normal equations (oracle.DenseDetect: the
// Gram formed densely and factored by matrix.NewCholesky, the backend
// dense Grams used to get) on three sets of engines: FatTree(8)
// pair-exact rules for the benchmark's 960 flows, whose slice Grams are
// diagonal; destination-aggregate rules on FatTree(4) and DCell, whose
// Grams are block-structured — the four FatTree(4) slice Grams denser
// than 12.5%, which used to be factored dense, among them; and the
// FatTree(4) pair-exact engines of the masked-window oracle table,
// masked windows included. Every engine — the full one and each
// slice's — must give the oracle's verdict and an index within
// oracle.SameIndex, and the sliced detector the oracle's suspects. The
// one exception is a ridge-regularized engine (a wide or rank-deficient
// H) other than those four: its estimate carries the part of y no
// volumes explain divided by ε, so two factorizations' rounding differs
// there by ~u/ε, and its index and estimate are held to 1e-6.
func TestPreparedEnginesMatchDenseOracle(t *testing.T) {
	ft8, ft8Slices := dispatchFCM(t, "fattree8", controller.PairExact, 960)
	ft4, ft4Slices := dispatchFCM(t, "fattree4", controller.PairExact, 0)
	ft4Agg, ft4AggSlices := dispatchFCM(t, "fattree4", controller.DestAggregate, 0)
	dcell, dcellSlices := dispatchFCM(t, "dcell14", controller.DestAggregate, 0)
	switchRows := func(f *fcm.FCM, sw topo.SwitchID) []int {
		var rows []int
		for _, r := range f.Rules {
			if r.Switch == sw {
				rows = append(rows, r.ID)
			}
		}
		return rows
	}
	// The masked-window table's masks, by kind: a missing switch, and
	// every rule of one multi-hop flow.
	var churned []int
	for _, fl := range ft4.Flows {
		if len(fl.RuleIDs) >= 3 {
			churned = fl.RuleIDs
			break
		}
	}
	systems := []dispatchSystem{
		{"fattree8-pair-exact", ft8, ft8Slices, nil, false},
		{"fattree4-dest-aggregate", ft4Agg, ft4AggSlices, nil, true},
		{"dcell14-dest-aggregate", dcell, dcellSlices, nil, true},
		{"fattree4-masked-oracle", ft4, ft4Slices, [][]int{
			switchRows(ft4, ft4Slices[len(ft4Slices)-1].Switch),
			churned,
			append(switchRows(ft4, ft4Slices[0].Switch), churned...),
		}, false},
	}
	dense := oracle.Solver(oracle.DenseDetect)
	rng := rand.New(rand.NewSource(27))
	denseGrams := 0
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			ys := dispatchWindows(rng, sys.f.H)
			filled, ridged := 0, 0
			// prepare returns the engine and the tolerance it is held to:
			// 0 for oracle.SameIndex and 1e-9 on x̂, or 1e-6.
			prepare := func(what string, h *matrix.CSR) (*core.Detector, float64) {
				t.Helper()
				d, err := core.NewDetector(h, core.Options{})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				tol := 0.0
				if d.Prepared().Ridge() != 0 {
					ridged++
					tol = 1e-6
				}
				st := d.PrepareStats()
				if n := float64(st.Dim); (2*float64(st.GramNNZ)-n)/(n*n) > 0.125 {
					filled++
					tol = 0
				}
				return d, tol
			}
			// When H has deficient column rank, x̂ is not determined along
			// null(H): a ridge-regularized engine resolves that component
			// only to u/ε, each factorization differently. Such an x̂ may
			// differ, but only along null(H): on an unmasked window the fit
			// ŷ = Hx̂ must still agree.
			nullSpace := 0
			compare := func(what string, got, want core.Result, tol float64, masked bool) {
				t.Helper()
				same := oracle.SameIndex(got.Index, want.Index)
				if tol != 0 {
					same = got.Index == want.Index || math.Abs(got.Index-want.Index) <= tol*math.Max(1, math.Abs(want.Index))
				}
				if got.Anomalous != want.Anomalous || !same {
					t.Fatalf("%s: verdict (%v, %v), oracle (%v, %v)", what, got.Anomalous, got.Index, want.Anomalous, want.Index)
				}
				if tol == 0 {
					tol = 1e-9
				}
				if within(got.XHat, want.XHat, tol) {
					return
				}
				if masked || !within(got.YHat, want.YHat, tol) {
					t.Fatalf("%s: x̂ and ŷ differ from the oracle beyond %g", what, tol)
				}
				nullSpace++
			}
			full, fullTol := prepare("full engine", sys.f.H)
			engines := make([]*core.Detector, len(sys.slices))
			tols := make(map[topo.SwitchID]float64, len(sys.slices))
			for i, sl := range sys.slices {
				engines[i], tols[sl.Switch] = prepare(fmt.Sprintf("slice %d", sl.Switch), sl.H)
			}
			sliced, err := core.NewSlicedDetectorWithEngines(sys.slices, engines, sys.f.NumRules(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for w, y := range ys {
				for m, masked := range append([][]int{nil}, sys.masks...) {
					what := fmt.Sprintf("window %d mask %d", w, m)
					got, err := full.DetectMasked(y, masked, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					want, kept, err := dense.Detect(sys.f.H, y, masked, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if masked != nil {
						// The oracle's fit is positional over the kept rows.
						yHat := make([]float64, len(kept))
						for k, r := range kept {
							yHat[k] = got.YHat[r]
						}
						got.YHat = yHat
					}
					compare(what+" full engine", got, want, fullTol, masked != nil)
					out, err := sliced.DetectMasked(y, masked, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					outRef, err := dense.DetectSliced(sys.f, sys.slices, y, masked, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if out.Anomalous != outRef.Anomalous || !reflect.DeepEqual(out.Suspects, outRef.Suspects) || len(out.PerSwitch) != len(outRef.PerSwitch) {
						t.Fatalf("%s sliced: (%v, %v), oracle (%v, %v)", what, out.Anomalous, out.Suspects, outRef.Anomalous, outRef.Suspects)
					}
					for i, ps := range out.PerSwitch {
						compare(fmt.Sprintf("%s slice %d", what, ps.Switch), ps.Result, outRef.PerSwitch[i].Result, tols[ps.Switch], masked != nil)
					}
				}
			}
			t.Logf("%d engines: %d Grams denser than 12.5%%, %d ridge-regularized; %d results with x̂ differing along null(H)", len(sys.slices)+1, filled, ridged, nullSpace)
			denseGrams += filled
			if !sys.aggregate && (filled != 0 || ridged != 0 || nullSpace != 0) {
				t.Fatalf("pair-exact engines: %d dense Grams, %d ridge-regularized, %d x̂ differing", filled, ridged, nullSpace)
			}
		})
	}
	if denseGrams != 4 {
		t.Fatalf("%d Grams denser than 12.5%%, want the four FatTree(4) destination-aggregate slices", denseGrams)
	}
}

// within: every entry of got is within tol·max(1, ‖want‖∞) of want's.
func within(got, want []float64, tol float64) bool {
	m := 1.0
	for _, x := range want {
		m = math.Max(m, math.Abs(x))
	}
	for j := range want {
		if math.Abs(got[j]-want[j]) > tol*m {
			return false
		}
	}
	return true
}

// TestDualDetectorMatchesPrimalReference asks the paper's question of
// the same wide systems through core.Detector, once over the dual
// engine and once over the primal reference: same verdict, and the
// same anomaly index to 1e-5 (two infinite indices agree) on clean,
// tampered and noisy windows.
func TestDualDetectorMatchesPrimalReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	compared := 0
	for _, c := range matrix.WideCases(t, rng) {
		if c.H.Rows() > 120 {
			continue // the index is a ratio of residuals: nothing in it scales with size but the reference's cost
		}
		name := c.Name
		ref, err := matrix.ReferencePrepareLS(c.H, matrix.LeastSquaresOptions{})
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if ref.Ridge() == 0 {
			continue // the reference skipped its ridge; see TestDualEngineMatchesPrimalReference
		}
		dual, err := matrix.PrepareLS(c.H, matrix.LeastSquaresOptions{})
		if err != nil {
			t.Fatalf("%s: dual: %v", name, err)
		}
		want := core.NewDetectorFromPrepared(ref, core.Options{})
		got := core.NewDetectorFromPrepared(dual, core.Options{})
		if !got.PrepareStats().Dual || want.PrepareStats().Dual {
			t.Fatalf("%s: engines are not one dual, one primal", name)
		}
		ys := matrix.WideWindows(t, rng, c.H)
		for w, y := range ys {
			rw, err := want.Detect(y)
			if err != nil {
				t.Fatal(err)
			}
			rg, err := got.Detect(y)
			if err != nil {
				t.Fatal(err)
			}
			compared++
			if rg.Anomalous != rw.Anomalous {
				t.Fatalf("%s window %d: verdict %v (AI %g), reference %v (AI %g)", name, w, rg.Anomalous, rg.Index, rw.Anomalous, rw.Index)
			}
			if rg.Index != rw.Index && !(math.Abs(rg.Index-rw.Index) <= 1e-5*math.Max(1, rw.Index)) {
				t.Fatalf("%s window %d: AI %g, reference %g", name, w, rg.Index, rw.Index)
			}
		}
	}
	if compared == 0 {
		t.Fatal("nothing compared")
	}
}
