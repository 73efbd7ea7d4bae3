package matrix_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"foces/internal/core"
	"foces/internal/matrix"
)

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
