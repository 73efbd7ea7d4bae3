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
		want := h.gramSerial()
		got := g.toDense()
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
		sp, err := NewSparseCholesky(g)
		if err != nil {
			t.Fatalf("trial %d: sparse factor: %v", trial, err)
		}
		dch, err := NewCholesky(h.gramSerial())
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

// TestSparseCholeskyWideSupernodes drives a wide dense panel through
// the supernodal factor — a Gram holding a 150-column clique, which
// factors as one wide supernode — and checks it against the dense
// reference.
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
	sp, err := NewSparseCholesky(h.SymGram())
	if err != nil {
		t.Fatal(err)
	}
	widest := 0
	for s := 0; s+1 < len(sp.sym.snode); s++ {
		widest = max(widest, int(sp.sym.snode[s+1]-sp.sym.snode[s]))
	}
	if widest < 150 {
		t.Fatalf("widest supernode has %d columns, want the whole clique", widest)
	}
	dch, err := NewCholesky(h.gramSerial())
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
		t.Fatal("sparse vs dense solve diverge")
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
	p, err := PrepareLS(h, LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Ridge() == 0 {
		t.Fatal("want a ridge-regularized engine")
	}
}

// TestSparseUpdateDowndateMatchesDense: updating the factor of G by a
// row x of H solves like a cold factorization of G + xxᵀ — the dense
// reference sweep and the sparse factor alike — and downdating the
// same row solves like the cold factor of G again.
func TestSparseUpdateDowndateMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		cols := 10 + rng.Intn(40)
		h := randomSparseH(rng, 3*cols, cols, 0.1)
		sp, err := NewSparseCholesky(h.SymGram())
		if err != nil {
			t.Fatal(err)
		}
		// Update with a row drawn from H itself: its pattern is a subset
		// of an existing Gram clique, so no fill is needed. H with that
		// row appended has the Gram G + xxᵀ.
		ri := rng.Intn(h.Rows())
		x := make([]float64, cols)
		var trips []Triplet
		for i := 0; i < h.Rows(); i++ {
			h.RowEntries(i, func(c int, v float64) { trips = append(trips, Triplet{Row: i, Col: c, Val: v}) })
		}
		h.RowEntries(ri, func(c int, v float64) {
			x[c] = v
			trips = append(trips, Triplet{Row: h.Rows(), Col: c, Val: v})
		})
		hx, err := NewCSR(h.Rows()+1, cols, trips)
		if err != nil {
			t.Fatal(err)
		}
		if err := sp.Update(x); err != nil {
			t.Fatalf("trial %d: sparse update: %v", trial, err)
		}
		b := make([]float64, cols)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		solvesLike := func(what string, g *SymSparse) {
			t.Helper()
			cold, err := NewSparseCholesky(g)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := NewCholesky(g.toDense())
			if err != nil {
				t.Fatal(err)
			}
			got, xs, xd := make([]float64, cols), make([]float64, cols), make([]float64, cols)
			scratch := make([]float64, cols)
			if err := errors.Join(sp.SolveInto(got, b, scratch), cold.SolveInto(xs, b, scratch), dense.SolveInto(xd, b, scratch)); err != nil {
				t.Fatal(err)
			}
			if !VecEqualApprox(got, xs, 1e-8) || !VecEqualApprox(got, xd, 1e-8) {
				t.Fatalf("trial %d: %s solves unlike the cold factors", trial, what)
			}
		}
		solvesLike("update", hx.SymGram())
		if err := sp.Downdate(x); err != nil {
			t.Fatalf("trial %d: sparse downdate: %v", trial, err)
		}
		solvesLike("update+downdate", h.SymGram())
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
		sp, err := NewSparseCholesky(h.SymGram())
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
	sp, err := NewSparseCholesky(h.SymGram())
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
	sp, err := NewSparseCholesky(h.SymGram())
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

// TestPreparedLSSparseVsDenseAcrossDensities: across Gram densities
// from 2% to 50%, the prepared engine's residual norm matches the one
// the dense reference factorization of HᵀH leaves, to 1e-12 of ‖y‖ —
// the equivalence gate the sparse experiment enforces.
func TestPreparedLSSparseVsDenseAcrossDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, p := range []float64{0.02, 0.05, 0.1, 0.2, 0.35, 0.5} {
		cols := 80 + rng.Intn(60)
		h := randomSparseH(rng, 2*cols, cols, p)
		dense, err := NewCholesky(h.gramSerial())
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := PrepareLS(h, LeastSquaresOptions{})
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, h.Rows())
		for i := range y {
			y[i] = math.Abs(rng.NormFloat64()) * 1000
		}
		hty, err := h.TMulVec(y)
		if err != nil {
			t.Fatal(err)
		}
		xd, err := dense.Solve(hty)
		if err != nil {
			t.Fatal(err)
		}
		xs, err := sparse.Solve(y)
		if err != nil {
			t.Fatal(err)
		}
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
