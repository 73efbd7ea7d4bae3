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
	"foces/internal/topo"
)

// dispatchSystem is one rule set the structure-chosen dispatch is
// checked on: its FCM and per-switch slices, the rows masked in the
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

// TestStructureDispatchMatchesWidthGate drives PrepareLS's
// structure-chosen dispatch against the width gate it replaced
// (matrix.WidthGatedPrepareLS) on three sets of engines: FatTree(8)
// pair-exact rules for the benchmark's 960 flows, whose slice Grams are
// diagonal and all move to the sparse factor; destination-aggregate
// rules on FatTree(4) and DCell, whose Grams are block-structured —
// most are sparse enough to move too, and those that fill in past the
// density constant must stay dense; and the FatTree(4) pair-exact
// engines of the masked-window oracle table, masked windows included.
// Every engine — the full one and each slice's — must report the same
// ridge to the bit and a volume estimate within 1e-9 relative, and the
// full and sliced detectors the same verdicts and suspects, with
// indices within 1e-9.
func TestStructureDispatchMatchesWidthGate(t *testing.T) {
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
	rng := rand.New(rand.NewSource(27))
	aggregateDense := 0
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			ys := dispatchWindows(rng, sys.f.H)
			moved, dense, ridged := 0, 0, 0
			prepare := func(what string, h *matrix.CSR) (got, want *core.Detector) {
				t.Helper()
				ref, err := matrix.WidthGatedPrepareLS(h)
				if err != nil {
					t.Fatalf("%s: width-gated reference: %v", what, err)
				}
				p, err := matrix.PrepareLS(h, matrix.LeastSquaresOptions{})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if math.Float64bits(p.Ridge()) != math.Float64bits(ref.Ridge()) {
					t.Fatalf("%s: ridge %g, reference %g", what, p.Ridge(), ref.Ridge())
				}
				if p.SparseBacked() != ref.SparseBacked() {
					moved++
				}
				if !p.SparseBacked() {
					dense++
				}
				if p.Ridge() != 0 {
					ridged++
				}
				return core.NewDetectorFromPrepared(p, core.Options{}), core.NewDetectorFromPrepared(ref, core.Options{})
			}
			// When H has deficient column rank, x̂ is not determined along
			// null(H): a ridge-regularized engine resolves that component
			// only to u/ε, and a plain factorization that slipped past a
			// pivot a few ulps above zero leaves it arbitrary — each backend
			// differently. Such an x̂ may differ, but only along null(H):
			// the fit ŷ = Hx̂ must still agree. Ridge-regularized engines
			// compare within 1e-6.
			nullSpace := 0
			compare := func(what string, got, want core.Result, ridge float64) {
				t.Helper()
				tol := 1e-9
				if ridge != 0 {
					tol = 1e-6
				}
				if got.Anomalous != want.Anomalous || !closeIndex(got.Index, want.Index, tol) {
					t.Fatalf("%s: verdict (%v, %v), reference (%v, %v)", what, got.Anomalous, got.Index, want.Anomalous, want.Index)
				}
				if within(got.XHat, want.XHat, tol) {
					return
				}
				if !within(got.YHat, want.YHat, tol) {
					t.Fatalf("%s: x̂ and ŷ differ from the reference beyond %g (ridge %g)", what, tol, ridge)
				}
				nullSpace++
			}
			full, fullRef := prepare("full engine", sys.f.H)
			engines := make([]*core.Detector, len(sys.slices))
			refs := make([]*core.Detector, len(sys.slices))
			ridge := make(map[topo.SwitchID]float64, len(sys.slices))
			for i, sl := range sys.slices {
				engines[i], refs[i] = prepare(fmt.Sprintf("slice %d", sl.Switch), sl.H)
				ridge[sl.Switch] = engines[i].Prepared().Ridge()
			}
			sliced, err := core.NewSlicedDetectorWithEngines(sys.slices, engines, sys.f.NumRules(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			slicedRef, err := core.NewSlicedDetectorWithEngines(sys.slices, refs, sys.f.NumRules(), core.Options{})
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
					want, err := fullRef.DetectMasked(y, masked, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					compare(what+" full engine", got, want, full.Prepared().Ridge())
					out, err := sliced.DetectMasked(y, masked, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					outRef, err := slicedRef.DetectMasked(y, masked, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					if out.Anomalous != outRef.Anomalous || !reflect.DeepEqual(out.Suspects, outRef.Suspects) || len(out.PerSwitch) != len(outRef.PerSwitch) {
						t.Fatalf("%s sliced: (%v, %v), reference (%v, %v)", what, out.Anomalous, out.Suspects, outRef.Anomalous, outRef.Suspects)
					}
					for i, ps := range out.PerSwitch {
						compare(fmt.Sprintf("%s slice %d", what, ps.Switch), ps.Result, outRef.PerSwitch[i].Result, ridge[ps.Switch])
					}
				}
			}
			t.Logf("%d engines: %d changed backend, %d stay dense, %d ridge-regularized; %d results with x̂ differing along null(H)", len(sys.slices)+1, moved, dense, ridged, nullSpace)
			if sys.aggregate {
				aggregateDense += dense
				return
			}
			if dense != 0 || ridged != 0 || nullSpace != 0 {
				t.Fatalf("pair-exact engines: %d stayed dense, %d ridge-regularized, %d x̂ differing", dense, ridged, nullSpace)
			}
			if moved < len(sys.slices)-2 {
				t.Fatalf("only %d of %d diagonal slice Grams moved to the sparse factor", moved, len(sys.slices))
			}
		})
	}
	if aggregateDense == 0 {
		t.Fatal("no destination-aggregate Gram filled in enough to stay dense")
	}
}

// closeIndex: two anomaly indices agree within tol relative, or are the
// same infinity.
func closeIndex(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
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
		for _, be := range matrix.WideBackends {
			name := fmt.Sprintf("%s/%s", c.Name, be.Name)
			ref, err := matrix.ReferencePrepareLS(c.H, matrix.LeastSquaresOptions{}, be.KO)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			if ref.Ridge() == 0 {
				continue // the reference skipped its ridge; see TestDualEngineMatchesPrimalReference
			}
			dual, err := matrix.PrepareLSOpts(c.H, matrix.LeastSquaresOptions{}, be.KO)
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
			// The batched path is the same engine: bit for bit.
			batch, err := got.DetectBatch(ys)
			if err != nil {
				t.Fatal(err)
			}
			for w, y := range ys {
				one, _ := got.Detect(y)
				if math.Float64bits(batch[w].Index) != math.Float64bits(one.Index) || batch[w].Anomalous != one.Anomalous {
					t.Fatalf("%s window %d: batched AI %g, single %g", name, w, batch[w].Index, one.Index)
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("nothing compared")
	}
}
