package matrix

import (
	"math/rand"
	"testing"
)

// fcmShapedCSR builds a random sparse 0/1 matrix with at least one entry
// per row and per column, FCM-shaped (tall, full column rank with high
// probability).
func fcmShapedCSR(t *testing.T, rng *rand.Rand, rows, cols int) *CSR {
	t.Helper()
	var entries []Triplet
	for i := 0; i < rows; i++ {
		entries = append(entries, Triplet{Row: i, Col: rng.Intn(cols), Val: 1})
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.2 {
				entries = append(entries, Triplet{Row: i, Col: j, Val: 1})
			}
		}
	}
	for j := 0; j < cols; j++ {
		entries = append(entries, Triplet{Row: rng.Intn(rows), Col: j, Val: 1})
	}
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPreparedLSMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rows := 8 + rng.Intn(24)
		cols := 3 + rng.Intn(rows-2)
		h := fcmShapedCSR(t, rng, rows, cols)
		y := make([]float64, rows)
		for i := range y {
			y[i] = rng.NormFloat64() * 100
		}
		want, err := SolveNormalEquations(h, y, LeastSquaresOptions{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := PrepareLS(h, LeastSquaresOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Solve(y)
		if err != nil {
			t.Fatal(err)
		}
		if !VecEqualApprox(got, want, 1e-12) {
			t.Fatalf("trial %d: prepared %v != one-shot %v", trial, got, want)
		}
		// A second solve against different counters reuses the factor.
		for i := range y {
			y[i] = rng.NormFloat64() * 100
		}
		want2, err := SolveNormalEquations(h, y, LeastSquaresOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got2, err := p.Solve(y)
		if err != nil {
			t.Fatal(err)
		}
		if !VecEqualApprox(got2, want2, 1e-12) {
			t.Fatalf("trial %d: second prepared solve diverged", trial)
		}
	}
}

func TestPreparedLSRidgeFallback(t *testing.T) {
	// Duplicate columns make HᵀH singular; prepare must bake in the
	// ridge and still solve.
	h, err := NewCSR(3, 2, []Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 0, Val: 1}, {Row: 2, Col: 1, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := PrepareLS(h, LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Ridge() == 0 {
		t.Fatal("singular system must record an applied ridge")
	}
	y := []float64{2, 2, 2}
	got, err := p.Solve(y)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveNormalEquations(h, y, LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(got, want, 1e-9) {
		t.Fatalf("ridge solve %v != one-shot %v", got, want)
	}
}

// TestPreparedLSSolveIntoAllocationFree: SolveInto works entirely inside
// the caller's buffers, on primal and dual engines — the dual form
// carves z and its triangular-solve scratch out of them too.
func TestPreparedLSSolveIntoAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, h := range []*CSR{fcmShapedCSR(t, rng, 40, 12), fcmShapedCSR(t, rng, 12, 40)} {
		y := make([]float64, h.Rows())
		for i := range y {
			y[i] = rng.Float64() * 1000
		}
		p, err := PrepareLS(h, LeastSquaresOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Stats(); st.Dual != (h.Rows() < h.Cols()) {
			t.Fatalf("%dx%d: stats %+v", h.Rows(), h.Cols(), st)
		}
		dst := make([]float64, p.Cols())
		ws := make([]float64, p.Cols())
		allocs := testing.AllocsPerRun(50, func() {
			if err := p.SolveInto(dst, y, ws); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%dx%d: SolveInto allocates %v times per run, want 0", h.Rows(), h.Cols(), allocs)
		}
	}
}

func TestPreparedLSValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := fcmShapedCSR(t, rng, 10, 4)
	p, err := PrepareLS(h, LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SolveInto(make([]float64, 4), make([]float64, 3), make([]float64, 4)); err == nil {
		t.Fatal("short y must error")
	}
	if err := p.SolveInto(make([]float64, 2), make([]float64, 10), make([]float64, 4)); err == nil {
		t.Fatal("short dst must error")
	}
	if p.Rows() != 10 || p.Cols() != 4 {
		t.Fatalf("dims %dx%d", p.Rows(), p.Cols())
	}
	// A dual engine keeps the Cols()-length buffer contract, and never
	// takes a factor handed back in as one of HᵀH.
	wide, err := PrepareLS(h.transpose(), LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wide.SolveInto(make([]float64, 10), make([]float64, 4), make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	if err := wide.SolveInto(make([]float64, 10), make([]float64, 4), make([]float64, 4)); err == nil {
		t.Fatal("short dual workspace must error")
	}
	if err := wide.SolveInto(make([]float64, 4), make([]float64, 4), make([]float64, 10)); err == nil {
		t.Fatal("short dual dst must error")
	}
	if _, err := NewPreparedLSFromUpdatable(wide.H(), wide.sp, wide.Ridge()); err == nil {
		t.Fatal("a dual engine's HHᵀ factor was wrapped as a factor of HᵀH")
	}
}

func TestCSRMulVecIntoMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h := fcmShapedCSR(t, rng, 15, 6)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, err := h.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 15)
	// Pre-poison dst to verify it is fully overwritten.
	for i := range dst {
		dst[i] = 1e300
	}
	if err := h.MulVecInto(dst, x); err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(dst, want, 0) {
		t.Fatalf("MulVecInto %v != MulVec %v", dst, want)
	}

	yv := make([]float64, 15)
	for i := range yv {
		yv[i] = rng.NormFloat64()
	}
	wantT, err := h.TMulVec(yv)
	if err != nil {
		t.Fatal(err)
	}
	dstT := make([]float64, 6)
	for i := range dstT {
		dstT[i] = -7
	}
	if err := h.TMulVecInto(dstT, yv); err != nil {
		t.Fatal(err)
	}
	if !VecEqualApprox(dstT, wantT, 0) {
		t.Fatalf("TMulVecInto %v != TMulVec %v", dstT, wantT)
	}

	if err := h.MulVecInto(make([]float64, 3), x); err == nil {
		t.Fatal("short dst must error")
	}
	if err := h.TMulVecInto(make([]float64, 3), yv); err == nil {
		t.Fatal("short dst must error")
	}
}
