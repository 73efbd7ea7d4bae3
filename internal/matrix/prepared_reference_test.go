package matrix

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// referencePrepareLS is prepareLS as it stood before wide systems
// learned to factor HHᵀ+εI: always the primal Gram HᵀH, a plain
// factorization first, the ridge retry when it fails. Only the names
// changed. It is the reference the dual engine must agree with.
func referencePrepareLS(h *CSR, opts LeastSquaresOptions, prevSym *SparseSymbolic) (*PreparedLS, error) {
	t0 := time.Now()
	g := h.SymGram()
	return referencePrepareSparse(h, opts, g, time.Since(t0), prevSym)
}

// referencePrepareSparse is its factorization: AMD ordering + symbolic
// analysis (reused from prevSym when its Gram pattern matches),
// supernodal numeric factorization, ridge retry on the same analysis.
func referencePrepareSparse(h *CSR, opts LeastSquaresOptions, g *SymSparse, tGram time.Duration, prevSym *SparseSymbolic) (*PreparedLS, error) {
	var tOrd, tSym time.Duration
	sym := prevSym
	if sym == nil || !sym.Matches(g) {
		t0 := time.Now()
		perm := amdOrder(g.n, g.adjPtr, g.adj)
		tOrd = time.Since(t0)
		t1 := time.Now()
		sym = symbolicFromPerm(g, perm)
		tSym = time.Since(t1)
	}
	t2 := time.Now()
	sp, err := newSparseCholeskyWith(g, sym)
	ridge := 0.0
	if err != nil {
		if !errors.Is(err, ErrNotPositiveDefinite) {
			return nil, err
		}
		ridge = opts.Ridge
		if ridge == 0 {
			ridge = 1e-9 * (g.Trace()/float64(g.n) + 1)
		}
		// The pattern always stores diagonal slots, so the ridge retry
		// reuses the same symbolic analysis.
		g.AddRidge(ridge)
		sp, err = newSparseCholeskyWith(g, sym)
		if err != nil {
			return nil, fmt.Errorf("matrix: ridge-regularized normal equations: %w", err)
		}
	}
	tNum := time.Since(t2)
	return &PreparedLS{h: h, sp: sp, ridge: ridge, stats: PrepareStats{
		Gram:      tGram,
		Factor:    tOrd + tSym + tNum,
		Ordering:  tOrd,
		Symbolic:  tSym,
		Numeric:   tNum,
		GramNNZ:   g.NNZLower(),
		FactorNNZ: sp.FactorNNZ(),
	}}, nil
}

// ReferencePrepareLS exposes the primal-only reference to the external
// test package, which drives both engines through core.Detector.
var ReferencePrepareLS = func(h *CSR, opts LeastSquaresOptions) (*PreparedLS, error) {
	return referencePrepareLS(h, opts, nil)
}

// WideCase is one wide H of the dual-vs-reference property tests.
type WideCase struct {
	Name string
	H    *CSR
}

// WideCases builds the wide systems both property tests sweep: random
// integer-valued H from 1×n to 300×900 (rows = cols−1 included), then
// defaced with the structures that make a Gram singular or an engine
// trip — duplicated rows, rows that are sums of other rows, all-zero
// rows, empty columns. Integer entries keep both Gram traces exact, so
// the two engines must report bitwise the same default ridge.
func WideCases(t *testing.T, rng *rand.Rand) []WideCase {
	t.Helper()
	shapes := [][2]int{{1, 2}, {1, 40}, {2, 3}, {7, 8}, {17, 18}, {40, 41}, {25, 300}, {60, 200}, {120, 121}, {300, 900}}
	var cases []WideCase
	for _, sh := range shapes {
		rows, cols := sh[0], sh[1]
		a := make([][]float64, rows)
		for i := range a {
			a[i] = make([]float64, cols)
			for k := 0; k < 1+cols/12; k++ {
				a[i][rng.Intn(cols)] = 1
			}
		}
		cases = append(cases, WideCase{fmt.Sprintf("%dx%d", rows, cols), csrOf(t, a)})
		if rows < 4 {
			continue
		}
		// Deface a copy: every structure below lands on distinct rows.
		pick := rng.Perm(rows)
		copy(a[pick[0]], a[pick[1]]) // duplicated row
		for j := range a[pick[2]] {  // a row that is the sum of two others
			a[pick[2]][j] = a[pick[1]][j] + a[pick[3]][j]
		}
		if rows > 4 {
			clear(a[pick[4]]) // all-zero row
		}
		for k := 0; k < 1+cols/20; k++ { // empty columns
			j := rng.Intn(cols)
			for i := range a {
				a[i][j] = 0
			}
		}
		cases = append(cases, WideCase{fmt.Sprintf("%dx%d-defaced", rows, cols), csrOf(t, a)})
	}
	return cases
}

func csrOf(t *testing.T, a [][]float64) *CSR {
	t.Helper()
	var entries []Triplet
	for i, row := range a {
		for j, v := range row {
			if v != 0 {
				entries = append(entries, Triplet{Row: i, Col: j, Val: v})
			}
		}
	}
	h, err := NewCSR(len(a), len(a[0]), entries)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// WideWindows returns three observation vectors for h: a consistent
// one (y = Hx), the same with one counter halved, and the same with 1%
// multiplicative noise on every counter.
func WideWindows(t *testing.T, rng *rand.Rand, h *CSR) [][]float64 {
	t.Helper()
	x := make([]float64, h.Cols())
	for j := range x {
		x[j] = float64(500 + rng.Intn(1000))
	}
	clean, err := h.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]float64(nil), clean...)
	tampered[rng.Intn(len(tampered))] *= 0.5
	noisy := append([]float64(nil), clean...)
	for i := range noisy {
		noisy[i] *= 1 + 0.01*rng.NormFloat64()
	}
	return [][]float64{clean, tampered, noisy}
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, math.Abs(x))
	}
	return m
}

// TestDualEngineMatchesPrimalReference: on every wide H the dual engine
// computes the estimator the primal reference computes, with the
// default and an explicit ridge. The tolerances are
// what a ~1e-9 ridge leaves of float64:
//
//   - x̂ to 1e-4 relative: both engines resolve null-space components
//     of H only to u/ε.
//   - ŷ = Hx̂ to 1e-9·‖y‖∞ plus 1e-5 of the residual. The second term
//     is the dual form's: when rows of H are dependent, z carries the
//     part of y that no volumes explain divided by ε, and Hᵀ cancels it
//     only to rounding. A consistent window has no such part.
//
// The reference's doomed plain factorization of a singular HᵀH can
// also slip through on rounding (a last pivot a few ulps above zero).
// It then applies no ridge at all and its x̂ carries an arbitrary
// null-space component: not the estimator either engine documents, so
// such a pair is counted and its windows skipped.
func TestDualEngineMatchesPrimalReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	compared, slipped := 0, 0
	for _, c := range WideCases(t, rng) {
		for _, opts := range []LeastSquaresOptions{{}, {Ridge: 1e-6}} {
			if opts.Ridge != 0 && c.H.Rows() > 60 {
				continue // how ε is chosen does not depend on size; the primal reference's cost does
			}
			name := fmt.Sprintf("%s/ridge=%g", c.Name, opts.Ridge)
			ref, err := referencePrepareLS(c.H, opts, nil)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			dual, err := PrepareLS(c.H, opts)
			if err != nil {
				t.Fatalf("%s: dual: %v", name, err)
			}
			st := dual.Stats()
			if !st.Dual || st.Dim != c.H.Rows() {
				t.Fatalf("%s: stats %+v on a %dx%d system", name, st, c.H.Rows(), c.H.Cols())
			}
			if dual.CloneFactor() != nil {
				t.Fatalf("%s: a dual engine handed out its HHᵀ factor", name)
			}
			if opts.Ridge != 0 && dual.Ridge() != opts.Ridge {
				t.Fatalf("%s: ridge %g", name, dual.Ridge())
			}
			if ref.Ridge() == 0 {
				slipped++
				continue
			}
			compared++
			if dual.Ridge() != ref.Ridge() {
				t.Fatalf("%s: ridge %g, reference %g", name, dual.Ridge(), ref.Ridge())
			}
			for w, y := range WideWindows(t, rng, c.H) {
				want, err := ref.Solve(y)
				if err != nil {
					t.Fatal(err)
				}
				got, err := dual.Solve(y)
				if err != nil {
					t.Fatal(err)
				}
				yWant, _ := c.H.MulVec(want)
				yGot, _ := c.H.MulVec(got)
				if d, lim := maxAbsDiff(yGot, yWant), 1e-9*math.Max(1, maxAbs(y))+1e-5*maxAbsDiff(yWant, y); d > lim {
					t.Fatalf("%s window %d: ŷ differs by %g (limit %g)", name, w, d, lim)
				}
				if d, lim := maxAbsDiff(got, want), 1e-4*math.Max(1, maxAbs(want)); d > lim {
					t.Fatalf("%s window %d: x̂ differs by %g (limit %g)", name, w, d, lim)
				}
			}
		}
	}
	t.Logf("%d engine pairs compared in full; the reference skipped its ridge on %d", compared, slipped)
	if compared < 4*slipped {
		t.Fatalf("the reference skipped its ridge on %d of %d wide systems", slipped, compared+slipped)
	}
}

func maxAbsDiff(a, b []float64) float64 {
	d, _ := AbsDiff(a, b)
	return maxAbs(d)
}

// TestPrepareReusesDualSymbolic: PrepareLSReusing keeps its promise on
// the dual side — an unchanged HHᵀ pattern skips ordering and symbolic
// analysis — and a primal engine's analysis is never mistaken for one.
func TestPrepareReusesDualSymbolic(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cases := WideCases(t, rng)
	h := cases[len(cases)-1].H
	first, err := PrepareLS(h, LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := PrepareLSReusing(h, LeastSquaresOptions{}, first)
	if err != nil {
		t.Fatal(err)
	}
	if again.sp.sym != first.sp.sym {
		t.Fatal("same HHᵀ pattern, yet the symbolic analysis was redone")
	}
	if st := again.Stats(); st.Ordering != 0 || st.Symbolic != 0 || !st.Dual {
		t.Fatalf("reused prepare reports %+v", st)
	}
	tall, err := PrepareLS(h.transpose(), LeastSquaresOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tall.Stats().Dual {
		t.Fatal("a tall system was prepared in dual form")
	}
	y := WideWindows(t, rng, h)[2]
	want, _ := first.Solve(y)
	for _, prev := range []*PreparedLS{again, tall} {
		p, err := PrepareLSReusing(h, LeastSquaresOptions{}, prev)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := p.Solve(y)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("prepare reusing a %dx%d engine changed the solution", prev.Rows(), prev.Cols())
			}
		}
	}
}

// TestPrimalEngineBitwiseUnchanged: a tall or square H never takes the
// dual form, and its engine — ridge retry included — is the reference's
// to the bit.
func TestPrimalEngineBitwiseUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ridged := 0
	for _, sh := range [][2]int{{1, 1}, {5, 5}, {12, 7}, {40, 40}, {90, 30}, {200, 120}} {
		rows, cols := sh[0], sh[1]
		h := fcmShapedCSR(t, rng, rows, cols)
		if cols > 2 {
			// Two equal columns: HᵀH is singular and the ridge retry runs.
			a := h.ToDense()
			for i := 0; i < rows; i++ {
				a.Set(i, 1, a.At(i, 0))
			}
			rd := make([][]float64, rows)
			for i := range rd {
				rd[i] = a.Row(i)
			}
			h = csrOf(t, rd)
		}
		ref, err := referencePrepareLS(h, LeastSquaresOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PrepareLS(h, LeastSquaresOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Stats(); st.Dual || st.Dim != cols {
			t.Fatalf("%dx%d: stats %+v", rows, cols, st)
		}
		if p.CloneFactor() == nil {
			t.Fatalf("%dx%d: a primal engine refused CloneFactor", rows, cols)
		}
		if p.Ridge() != ref.Ridge() {
			t.Fatalf("%dx%d: ridge %g, reference %g", rows, cols, p.Ridge(), ref.Ridge())
		}
		if p.Ridge() != 0 {
			ridged++
		}
		for _, y := range WideWindows(t, rng, h) {
			want, _ := ref.Solve(y)
			got, _ := p.Solve(y)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%dx%d: x̂[%d] = %v, reference %v", rows, cols, i, got[i], want[i])
				}
			}
		}
	}
	if ridged == 0 {
		t.Fatal("no engine took the ridge retry")
	}
}
