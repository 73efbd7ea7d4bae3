package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestUpdateDegeneratePivotErrors is the regression test for an
// unguarded pivot division in Update: a factor with a zero diagonal
// (e.g. from an all-masked column after straddle reconciliation) must
// not produce silent ±Inf/NaN entries; it must fail with
// ErrNotPositiveDefinite and poison the factor.
func TestUpdateDegeneratePivotErrors(t *testing.T) {
	a, err := FromRows([][]float64{{2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	c := sparseFactor(t, a)
	c.val[c.sym.colPtr[0]] = 0 // degenerate first pivot
	err = c.Update([]float64{1, 1})
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	for i, v := range c.val {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("factor holds non-finite entry %d = %g after failed update", i, v)
		}
	}
	if c.Valid() {
		t.Fatal("factor still valid after degenerate update pivot")
	}
	if err := c.SolveInto(make([]float64, 2), []float64{1, 1}, make([]float64, 2)); !errors.Is(err, ErrFactorPoisoned) {
		t.Fatalf("want ErrFactorPoisoned from solve, got %v", err)
	}
}

// TestUpdateNaNInputErrors: a NaN in the update vector must surface as
// an error instead of propagating through the factor.
func TestUpdateNaNInputErrors(t *testing.T) {
	chol := sparseFactor(t, randomSPD(rand.New(rand.NewSource(1)), 4))
	err := chol.Update([]float64{1, math.NaN(), 0, 0})
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	if chol.Valid() {
		t.Fatal("factor still valid after NaN update")
	}
}

// TestDowndateFailurePoisonsFactor is the regression test for a
// non-atomic Downdate failure: the pass returns mid-sweep with some
// columns already rotated, and a caller ignoring the error would
// silently solve against a factor of no matrix at all. Failure must
// poison the factor so SolveInto and further maintenance refuse to run.
func TestDowndateFailurePoisonsFactor(t *testing.T) {
	// A − xxᵀ is indefinite, but whichever column the ordering puts
	// first keeps a positive pivot (4 − 1.9² > 0): the pass rotates it
	// and fails only at the second, leaving a partially mutated factor.
	a, err := FromRows([][]float64{{4, 0.5}, {0.5, 4}})
	if err != nil {
		t.Fatal(err)
	}
	chol := sparseFactor(t, a)
	before := append([]float64(nil), chol.val...)
	err = chol.Downdate([]float64{1.9, 1.9})
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite, got %v", err)
	}
	if chol.val[0] == before[0] {
		t.Fatal("the failed pass rotated nothing; the partially mutated state went unchecked")
	}
	if chol.Valid() {
		t.Fatal("factor still valid after failed downdate")
	}
	if err := chol.SolveInto(make([]float64, 2), []float64{1, 1}, make([]float64, 2)); !errors.Is(err, ErrFactorPoisoned) {
		t.Fatalf("want ErrFactorPoisoned from SolveInto, got %v", err)
	}
	if err := chol.Update([]float64{1, 0}); !errors.Is(err, ErrFactorPoisoned) {
		t.Fatalf("want ErrFactorPoisoned from Update, got %v", err)
	}
	// Poison survives cloning, and a poisoned factor cannot be promoted
	// into a prepared engine.
	if chol.Clone().Valid() {
		t.Fatal("clone of poisoned factor is valid")
	}
	h, err := NewCSR(2, 2, []Triplet{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPreparedLSFromUpdatable(h, chol, 0); !errors.Is(err, ErrFactorPoisoned) {
		t.Fatalf("want ErrFactorPoisoned from NewPreparedLSFromUpdatable, got %v", err)
	}
}

// roundTripOnce factors HᵀH, updates with one H row, downdates with the
// same row, and asserts the factor recovered to within tol.
func roundTripOnce(t *testing.T, rng *rand.Rand, rows, cols int, p float64, tol float64) {
	t.Helper()
	h := randomSparseH(rng, rows, cols, p)
	orig, err := NewSparseCholesky(h.SymGram())
	if err != nil {
		t.Fatalf("factor: %v", err)
	}
	x := make([]float64, cols)
	ri := rng.Intn(h.Rows())
	h.RowEntries(ri, func(c int, v float64) { x[c] = v })
	got := orig.Clone()
	if err := got.Update(x); err != nil {
		t.Fatalf("update: %v", err)
	}
	if err := got.Downdate(x); err != nil {
		t.Fatalf("downdate: %v", err)
	}
	factorEqualApprox(t, got, orig, tol)
}

// TestUpdateDowndateRoundTripProperty: over random sparse H, Update
// then Downdate with the same row must recover the original factor to
// 1e-10.
func TestUpdateDowndateRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		rows := 10 + rng.Intn(50)
		cols := 4 + rng.Intn(30)
		roundTripOnce(t, rng, rows, cols, 0.02+0.3*rng.Float64(), 1e-10)
	}
}

// FuzzUpdateDowndateRoundTrip drives the same property from fuzzed
// shape parameters.
func FuzzUpdateDowndateRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(10), uint8(30))
	f.Add(int64(99), uint8(60), uint8(34), uint8(5))
	f.Add(int64(-7), uint8(3), uint8(2), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, pctByte uint8) {
		r := 1 + int(rows)%64
		c := 1 + int(cols)%40
		p := float64(pctByte%100) / 100
		roundTripOnce(t, rand.New(rand.NewSource(seed)), r, c, p, 1e-10)
	})
}

// TestSparseUpdateDowndateRoundTripProperty: the same round trip at
// sparser fill (2–22%), checked entry by entry on the factor's values.
func TestSparseUpdateDowndateRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		rows := 10 + rng.Intn(50)
		cols := 4 + rng.Intn(30)
		h := randomSparseH(rng, rows, cols, 0.02+0.2*rng.Float64())
		orig, err := NewSparseCholesky(h.SymGram())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x := make([]float64, cols)
		ri := rng.Intn(h.Rows())
		h.RowEntries(ri, func(c int, v float64) { x[c] = v })
		got := orig.Clone()
		if err := got.Update(x); err != nil {
			t.Fatalf("trial %d update: %v", trial, err)
		}
		if err := got.Downdate(x); err != nil {
			t.Fatalf("trial %d downdate: %v", trial, err)
		}
		for i, v := range got.val {
			if math.Abs(v-orig.val[i]) > 1e-10 {
				t.Fatalf("trial %d: factor entry %d drifted %g", trial, i, v-orig.val[i])
			}
		}
	}
}
