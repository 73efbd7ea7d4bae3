package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSparseH builds a random rows×cols 0/1 CSR with the given
// per-row fill probability, padded with one identity row per column so
// the Gram is positive definite.
func randomSparseH(rng *rand.Rand, rows, cols int, p float64) *CSR {
	var tr []Triplet
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < p {
				tr = append(tr, Triplet{Row: i, Col: j, Val: 1})
			}
		}
	}
	for j := 0; j < cols; j++ {
		tr = append(tr, Triplet{Row: rows + j, Col: j, Val: 1})
	}
	h, err := NewCSR(rows+cols, cols, tr)
	if err != nil {
		panic(err)
	}
	return h
}

func TestSymGramMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows := 5 + rng.Intn(40)
		cols := 3 + rng.Intn(30)
		h := randomSparseH(rng, rows, cols, 0.05+0.3*rng.Float64())
		g := h.SymGram()
		if err := g.symCheck(); err != nil {
			t.Fatal(err)
		}
		want := h.GramSerial()
		got := g.ToDense()
		if !got.EqualApprox(want, 0) {
			t.Fatalf("trial %d: sparse Gram != dense Gram", trial)
		}
	}
}

func TestAMDOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		h := randomSparseH(rng, 30, 4+rng.Intn(40), 0.2)
		g := h.SymGram()
		perm := amdOrder(g.n, g.adjPtr, g.adj)
		if len(perm) != g.n {
			t.Fatalf("perm length %d vs %d", len(perm), g.n)
		}
		seen := make([]bool, g.n)
		for _, p := range perm {
			if p < 0 || int(p) >= g.n || seen[p] {
				t.Fatalf("invalid permutation %v", perm)
			}
			seen[p] = true
		}
	}
}

// TestAMDReducesArrowFill checks the heuristic actually helps on the
// classic worst case for the natural order: an arrow matrix pointing
// the wrong way (dense first row/column) fills completely under the
// identity order but stays O(n) when the hub is eliminated last.
func TestAMDReducesArrowFill(t *testing.T) {
	n := 40
	var tr []Triplet
	for j := 0; j < n; j++ {
		tr = append(tr, Triplet{Row: j, Col: j, Val: 4})
		if j > 0 {
			tr = append(tr, Triplet{Row: j, Col: 0, Val: 1}) // hub column 0
		}
	}
	h, err := NewCSR(n, n, tr)
	if err != nil {
		t.Fatal(err)
	}
	g := h.SymGram()
	natural := make([]int32, g.n)
	for i := range natural {
		natural[i] = int32(i)
	}
	symNat := symbolicFromPerm(g, natural)
	symAMD := analyzeSparse(g)
	if symAMD.FactorNNZ() >= symNat.FactorNNZ() {
		t.Fatalf("AMD fill %d not below natural fill %d", symAMD.FactorNNZ(), symNat.FactorNNZ())
	}
	// Natural order on the arrow fills the whole triangle.
	if symNat.FactorNNZ() != n*(n+1)/2 {
		t.Fatalf("natural arrow fill = %d, want %d", symNat.FactorNNZ(), n*(n+1)/2)
	}
	// Hub-last keeps it at the input pattern size.
	if symAMD.FactorNNZ() != 2*n-1 {
		t.Fatalf("AMD arrow fill = %d, want %d", symAMD.FactorNNZ(), 2*n-1)
	}
}

func TestSparseCholeskySolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		rows := 10 + rng.Intn(60)
		cols := 5 + rng.Intn(50)
		h := randomSparseH(rng, rows, cols, 0.02+0.25*rng.Float64())
		g := h.SymGram()
		sp, err := NewSparseCholesky(g, KernelOptions{})
		if err != nil {
			t.Fatalf("trial %d: sparse factor: %v", trial, err)
		}
		dch, err := NewCholesky(h.GramSerial())
		if err != nil {
			t.Fatalf("trial %d: dense factor: %v", trial, err)
		}
		b := make([]float64, cols)
		for i := range b {
			b[i] = rng.NormFloat64() * 100
		}
		xs := make([]float64, cols)
		xd := make([]float64, cols)
		scratch := make([]float64, cols)
		if err := sp.SolveInto(xs, b, scratch); err != nil {
			t.Fatal(err)
		}
		if err := dch.SolveInto(xd, b, scratch); err != nil {
			t.Fatal(err)
		}
		if !VecEqualApprox(xs, xd, 1e-9) {
			t.Fatalf("trial %d: sparse vs dense solve diverge", trial)
		}
	}
}

// TestSparseCholeskyWideSupernodes drives the blocked dense-panel path
// by building an H whose Gram holds a clique wider than 2×BlockSize.
func TestSparseCholeskyWideSupernodes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cols := 220
	var tr []Triplet
	// One dense-ish row coupling a 150-column clique.
	for j := 0; j < 150; j++ {
		tr = append(tr, Triplet{Row: 0, Col: j, Val: 1})
	}
	row := 1
	for j := 0; j < cols; j++ {
		tr = append(tr, Triplet{Row: row, Col: j, Val: 1})
		if j+1 < cols {
			tr = append(tr, Triplet{Row: row, Col: j + 1, Val: 1})
		}
		row++
	}
	for j := 0; j < cols; j++ {
		tr = append(tr, Triplet{Row: row, Col: j, Val: 1})
		row++
	}
	h, err := NewCSR(row, cols, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, ko := range []KernelOptions{{}, {BlockSize: 32}, {Serial: true}} {
		sp, err := NewSparseCholesky(h.SymGram(), ko)
		if err != nil {
			t.Fatalf("opts %+v: %v", ko, err)
		}
		dch, err := NewCholesky(h.GramSerial())
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, cols)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xs, xd := make([]float64, cols), make([]float64, cols)
		scratch := make([]float64, cols)
		if err := sp.SolveInto(xs, b, scratch); err != nil {
			t.Fatal(err)
		}
		if err := dch.SolveInto(xd, b, scratch); err != nil {
			t.Fatal(err)
		}
		if !VecEqualApprox(xs, xd, 1e-8) {
			t.Fatalf("opts %+v: sparse vs dense solve diverge", ko)
		}
	}
}

func TestSparseSymbolicReuseAcrossRidge(t *testing.T) {
	// A rank-deficient H (each column pair identical, hit by exactly one
	// row, so the 2×2 Gram blocks are exactly singular) forces the ridge
	// retry; the retry must succeed reusing the same analysis because
	// diagonal slots are always stored.
	var tr []Triplet
	for i := 0; i < 300; i++ {
		tr = append(tr, Triplet{Row: i, Col: i, Val: 1})
		tr = append(tr, Triplet{Row: i, Col: 300 + i, Val: 1})
	}
	h, err := NewCSR(300, 600, tr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PrepareLSOpts(h, LeastSquaresOptions{}, KernelOptions{Sparse: SparseAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !p.SparseBacked() || p.Ridge() == 0 {
		t.Fatalf("want sparse-backed ridge engine, got sparse=%v ridge=%g", p.SparseBacked(), p.Ridge())
	}
}

func TestSparseUpdateDowndateMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		cols := 10 + rng.Intn(40)
		h := randomSparseH(rng, 3*cols, cols, 0.1)
		g := h.SymGram()
		sp, err := NewSparseCholesky(g, KernelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dch, err := NewCholesky(h.GramSerial())
		if err != nil {
			t.Fatal(err)
		}
		// Update with a row drawn from H itself: its pattern is a subset
		// of an existing Gram clique, so no fill is needed.
		ri := rng.Intn(h.Rows())
		x := make([]float64, cols)
		h.RowEntries(ri, func(c int, v float64) { x[c] = v })
		if err := sp.Update(x); err != nil {
			t.Fatalf("trial %d: sparse update: %v", trial, err)
		}
		if err := dch.Update(x); err != nil {
			t.Fatal(err)
		}
		b := make([]float64, cols)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		xs, xd := make([]float64, cols), make([]float64, cols)
		scratch := make([]float64, cols)
		if err := sp.SolveInto(xs, b, scratch); err != nil {
			t.Fatal(err)
		}
		if err := dch.SolveInto(xd, b, scratch); err != nil {
			t.Fatal(err)
		}
		if !VecEqualApprox(xs, xd, 1e-8) {
			t.Fatalf("trial %d: post-update solves diverge", trial)
		}
		// Downdating the same row must return to the original factor.
		if err := sp.Downdate(x); err != nil {
			t.Fatalf("trial %d: sparse downdate: %v", trial, err)
		}
		fresh, err := NewSparseCholesky(h.SymGram(), KernelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SolveInto(xd, b, scratch); err != nil {
			t.Fatal(err)
		}
		if err := sp.SolveInto(xs, b, scratch); err != nil {
			t.Fatal(err)
		}
		if !VecEqualApprox(xs, xd, 1e-8) {
			t.Fatalf("trial %d: update+downdate did not round-trip", trial)
		}
	}
}

// A factor keeps its rank-one workspace between calls. Every call on
// the long-lived factor must leave the same bits as the same call on a
// clone taken just before it (a clone starts without a workspace) —
// across updates, downdates, an all-zero vector and a fill rejection
// that returns half-way through — and a warm successful call must not
// allocate.
func TestSparseRankOneScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rejected := 0
	for trial := 0; trial < 10; trial++ {
		cols := 10 + rng.Intn(40)
		h := randomSparseH(rng, 3*cols, cols, 0.1)
		sp, err := NewSparseCholesky(h.SymGram(), KernelOptions{})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, cols)
		step := func(name string, op func(c *SparseCholesky) error) {
			t.Helper()
			fresh := sp.Clone()
			errWarm, errFresh := op(sp), op(fresh)
			if (errWarm == nil) != (errFresh == nil) || errWarm != nil && errWarm.Error() != errFresh.Error() {
				t.Fatalf("trial %d %s: warm error %v, fresh error %v", trial, name, errWarm, errFresh)
			}
			if errors.Is(errWarm, ErrSparseUpdateFill) {
				rejected++
			}
			for i, v := range sp.val {
				if math.Float64bits(v) != math.Float64bits(fresh.val[i]) {
					t.Fatalf("trial %d %s: factor entry %d is %v warm, %v fresh", trial, name, i, v, fresh.val[i])
				}
			}
		}
		for round := 0; round < 6; round++ {
			ri := rng.Intn(h.Rows())
			for j := range x {
				x[j] = 0
			}
			h.RowEntries(ri, func(c int, v float64) { x[c] = v })
			step("update", func(c *SparseCholesky) error { return c.Update(x) })
			if round == 2 {
				dense := make([]float64, cols)
				for j := range dense {
					dense[j] = 1
				}
				// Rejected for fill on every trial whose Gram is not one
				// clique; either way warm and fresh must agree.
				step("dense update", func(c *SparseCholesky) error { return c.Update(dense) })
				step("zero update", func(c *SparseCholesky) error { return c.Update(make([]float64, cols)) })
			}
			step("downdate", func(c *SparseCholesky) error { return c.Downdate(x) })
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := sp.Update(x); err != nil {
				t.Fatal(err)
			}
			if err := sp.Downdate(x); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("trial %d: a warm update+downdate allocates %v times, want 0", trial, allocs)
		}
	}
	if rejected == 0 {
		t.Fatal("no trial exercised the fill-rejection return path")
	}
}

func TestSparseUpdateFillRejectedWithoutMutation(t *testing.T) {
	// Two disconnected 2-column cliques: an update coupling columns from
	// both needs fill outside the factor pattern and must be rejected
	// with the factor untouched.
	var tr []Triplet
	for j := 0; j < 4; j++ {
		tr = append(tr, Triplet{Row: j, Col: j, Val: 2})
	}
	tr = append(tr, Triplet{Row: 4, Col: 0, Val: 1}, Triplet{Row: 4, Col: 1, Val: 1})
	tr = append(tr, Triplet{Row: 5, Col: 2, Val: 1}, Triplet{Row: 5, Col: 3, Val: 1})
	h, err := NewCSR(6, 4, tr)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSparseCholesky(h.SymGram(), KernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := make([]float64, len(sp.val))
	copy(before, sp.val)
	err = sp.Update([]float64{1, 0, 1, 0}) // couples the two cliques
	if !errors.Is(err, ErrSparseUpdateFill) {
		t.Fatalf("want ErrSparseUpdateFill, got %v", err)
	}
	for i, v := range sp.val {
		if v != before[i] {
			t.Fatalf("factor mutated at %d despite fill rejection", i)
		}
	}
	if !sp.Valid() {
		t.Fatal("fill rejection must not poison the factor")
	}
	// The factor still solves.
	b := []float64{1, 2, 3, 4}
	x := make([]float64, 4)
	if err := sp.SolveInto(x, b, make([]float64, 4)); err != nil {
		t.Fatal(err)
	}
}

func TestSparseDowndatePoisonOnFailure(t *testing.T) {
	var tr []Triplet
	tr = append(tr,
		Triplet{Row: 0, Col: 0, Val: 2},
		Triplet{Row: 1, Col: 1, Val: 0.1},
		Triplet{Row: 2, Col: 0, Val: 1},
		Triplet{Row: 2, Col: 1, Val: 1},
	)
	h, err := NewCSR(3, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSparseCholesky(h.SymGram(), KernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Removing more weight than the second direction holds must fail…
	err = sp.Downdate([]float64{0, 1.5})
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	// …and poison the factor: solves and further maintenance error.
	if sp.Valid() {
		t.Fatal("factor still valid after failed downdate")
	}
	x := make([]float64, 2)
	if err := sp.SolveInto(x, []float64{1, 1}, make([]float64, 2)); !errors.Is(err, ErrFactorPoisoned) {
		t.Fatalf("want ErrFactorPoisoned from solve, got %v", err)
	}
	if err := sp.Update([]float64{1, 0}); !errors.Is(err, ErrFactorPoisoned) {
		t.Fatalf("want ErrFactorPoisoned from update, got %v", err)
	}
}

func TestPreparedLSSparseVsDenseAcrossDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, p := range []float64{0.02, 0.05, 0.1, 0.2, 0.35, 0.5} {
		cols := 80 + rng.Intn(60)
		h := randomSparseH(rng, 2*cols, cols, p)
		dense, err := PrepareLSOpts(h, LeastSquaresOptions{}, KernelOptions{Sparse: SparseNever})
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := PrepareLSOpts(h, LeastSquaresOptions{}, KernelOptions{Sparse: SparseAlways})
		if err != nil {
			t.Fatal(err)
		}
		if !sparse.SparseBacked() || dense.SparseBacked() {
			t.Fatalf("density %g: backend selection wrong", p)
		}
		y := make([]float64, h.Rows())
		for i := range y {
			y[i] = math.Abs(rng.NormFloat64()) * 1000
		}
		xd, err := dense.Solve(y)
		if err != nil {
			t.Fatal(err)
		}
		xs, err := sparse.Solve(y)
		if err != nil {
			t.Fatal(err)
		}
		// Compare residual norms relative to ‖y‖ — the equivalence gate
		// the experiment enforces at 1e-12.
		rd := residualNorm(t, h, xd, y)
		rs := residualNorm(t, h, xs, y)
		yn := Norm2(y)
		if delta := math.Abs(rd-rs) / math.Max(1, yn); delta > 1e-12 {
			t.Fatalf("density %g: residual delta %g > 1e-12", p, delta)
		}
	}
}

func residualNorm(t *testing.T, h *CSR, x, y []float64) float64 {
	t.Helper()
	hx, err := h.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	d, err := AbsDiff(hx, y)
	if err != nil {
		t.Fatal(err)
	}
	return Norm2(d)
}

// TestPreparedLSAutoSelection: SparseAuto reads the structure of the
// Gram, not its width — a narrow diagonal Gram (a pair-exact slice,
// one flow per rule) is factored sparsely, and a Gram that fills in is
// factored dense at any width.
func TestPreparedLSAutoSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	// diagonalH gives every row one entry and every column at least one:
	// HᵀH is diagonal and positive definite.
	diagonalH := func(rows, cols int) *CSR {
		var trips []Triplet
		for i := 0; i < rows; i++ {
			trips = append(trips, Triplet{Row: i, Col: i % cols, Val: 1})
		}
		h, err := NewCSR(rows, cols, trips)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, c := range []struct {
		name   string
		h      *CSR
		sparse bool
	}{
		{"narrow diagonal goes sparse", diagonalH(100, 50), true},
		{"narrow dense stays dense", randomSparseH(rng, 100, 50, 0.5), false},
		{"wide sparse", randomSparseH(rng, 1200, 600, 0.004), true},
		{"wide dense", randomSparseH(rng, 1200, 600, 0.5), false},
	} {
		p, err := PrepareLSOpts(c.h, LeastSquaresOptions{}, KernelOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.SparseBacked() != c.sparse || p.Stats().Sparse != c.sparse {
			t.Errorf("%s: %dx%d with Gram density %.3g prepared sparse=%v", c.name, c.h.Rows(), c.h.Cols(), c.h.SymGram().Density(), p.SparseBacked())
		}
	}
}
