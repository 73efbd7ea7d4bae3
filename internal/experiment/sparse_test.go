package experiment

import (
	"testing"

	"foces/internal/matrix"
	"foces/internal/topo"
)

func TestGroupTrafficHShape(t *testing.T) {
	top, err := topo.ByName("fattree4")
	if err != nil {
		t.Fatal(err)
	}
	h, err := groupTrafficH(top, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := top.NumHosts() * 3; h.Cols() != want {
		t.Fatalf("cols = %d, want %d", h.Cols(), want)
	}
	// Every column must carry at least the ingress rule and one path
	// switch, and the matrix must be full column rank (sparse prepare
	// without ridge must succeed on exact integer data).
	if _, err := matrix.PrepareLS(h, matrix.LeastSquaresOptions{}); err != nil {
		t.Fatalf("sparse prepare: %v", err)
	}
}

// TestSparseExperimentSmall runs both arms at toy scale: the scale arm
// on fattree4 (dense Gram far below any real budget — only the
// verdict sanity and stage plumbing are checked) and the
// engine-vs-oracle equivalence arm on one topology.
func TestSparseExperimentSmall(t *testing.T) {
	res, err := Sparse(SparseConfig{
		Topology:        "fattree4",
		GroupSize:       4,
		Windows:         2,
		Seed:            7,
		EquivTopologies: []string{"fattree4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CleanAnomalous {
		t.Error("clean windows flagged anomalous")
	}
	if !res.TamperedAnomalous {
		t.Error("tampered counter not flagged")
	}
	if res.FactorNNZ < res.GramNNZ || res.GramNNZ == 0 {
		t.Errorf("nnz bookkeeping: gram %d factor %d", res.GramNNZ, res.FactorNNZ)
	}
	if res.PrepareSecs <= 0 || res.NumericSecs <= 0 {
		t.Errorf("stage timings missing: prepare %g numeric %g", res.PrepareSecs, res.NumericSecs)
	}
	if res.PeakHeapBytes == 0 {
		t.Error("peak heap not sampled")
	}
	if len(res.Equiv) != 1 {
		t.Fatalf("equiv rows = %d", len(res.Equiv))
	}
	eq := res.Equiv[0]
	if !eq.VerdictsMatch || !res.VerdictsMatch {
		t.Error("engine and oracle verdicts diverged")
	}
	if eq.MaxResidualDelta > 1e-12 {
		t.Errorf("residual delta %g exceeds 1e-12", eq.MaxResidualDelta)
	}
}
