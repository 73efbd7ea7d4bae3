package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceRankOne is the textbook dense rank-one sweep on a lower
// factor L: every column is rotated, whether or not its working entry
// is zero, through the strided L accessors. It is the reference the
// sparse factor's Update/Downdate must equal bit for bit once L holds
// that factor's values in its permuted order: the sparse pass skips
// only the columns where the rotation is an exact no-op.
func referenceRankOne(l *Dense, x []float64, down bool) error {
	n := l.Rows()
	work := append([]float64(nil), x...)
	for k := 0; k < n; k++ {
		lkk := l.At(k, k)
		var r float64
		if down {
			d := (lkk - work[k]) * (lkk + work[k])
			if d <= 0 || math.IsNaN(d) {
				return fmt.Errorf("%w: downdate pivot %d = %g", ErrNotPositiveDefinite, k, d)
			}
			r = math.Sqrt(d)
		} else {
			r = math.Hypot(lkk, work[k])
			if lkk <= 0 || r == 0 || math.IsNaN(r) {
				return fmt.Errorf("%w: update pivot %d = %g", ErrNotPositiveDefinite, k, lkk)
			}
		}
		cos := r / lkk
		sin := work[k] / lkk
		l.Set(k, k, r)
		for i := k + 1; i < n; i++ {
			var lik float64
			if down {
				lik = (l.At(i, k) - sin*work[i]) / cos
			} else {
				lik = (l.At(i, k) + sin*work[i]) / cos
			}
			work[i] = cos*work[i] - sin*lik
			l.Set(i, k, lik)
		}
	}
	return nil
}

// denseFactor scatters a sparse factor into a dense lower L in its
// permuted order.
func denseFactor(c *SparseCholesky) *Dense {
	l := NewDense(c.sym.n, c.sym.n)
	for j := 0; j < c.sym.n; j++ {
		for p := c.sym.colPtr[j]; p < c.sym.colPtr[j+1]; p++ {
			l.Set(int(c.sym.rowIdx[p]), j, c.val[p])
		}
	}
	return l
}

// TestRankOneBitwiseEqualsReference: over random sparse Grams and
// update vectors drawn from rows of H — a whole row, or one entry of
// one — Update and Downdate leave exactly the bits the dense reference
// sweep leaves on the same factor, and zeros everywhere outside the
// pattern; on a bad pivot both fail at the same column with the same
// error and agree on the columns already rotated, and the factor is
// poisoned. A completed pass also matches a cold factorization of
// G ± xxᵀ, and a failed downdate is one whose G − xxᵀ the cold
// factorization refuses too.
func TestRankOneBitwiseEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	failures := 0
	for trial := 0; trial < 60; trial++ {
		cols := 1 + rng.Intn(24)
		h := randomSparseH(rng, 2*cols, cols, 0.05+0.2*rng.Float64())
		g := h.gramSerial()
		base, err := NewSparseCholesky(h.SymGram())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x := make([]float64, cols)
		h.RowEntries(rng.Intn(h.Rows()), func(c int, v float64) { x[c] = v })
		if trial%3 == 2 { // one non-zero — a rule row matched by a single flow
			keep := rng.Intn(cols)
			for j := range x {
				if j != keep {
					x[j] = 0
				}
			}
			x[keep] = 1
		}
		// Every fourth trial overweights x so the downdate hits a bad
		// pivot part-way through.
		scale := 0.3
		if trial%4 == 3 {
			scale = 50
		}
		for i := range x {
			x[i] *= scale
		}
		xp := make([]float64, cols)
		for i, v := range x {
			xp[base.sym.iperm[i]] = v
		}
		for _, down := range []bool{false, true} {
			got := base.Clone()
			want := denseFactor(base)
			gotErr := got.rankOne(x, down)
			wantErr := referenceRankOne(want, xp, down)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("trial %d down=%v: error %v, reference %v", trial, down, gotErr, wantErr)
			}
			if gotErr != nil {
				failures++
			}
			if got.Valid() != (gotErr == nil) {
				t.Fatalf("trial %d down=%v: valid %v after error %v", trial, down, got.Valid(), gotErr)
			}
			if !sameBits(denseFactor(got), want) {
				t.Fatalf("trial %d down=%v (err %v): factor differs from the reference", trial, down, gotErr)
			}
			sign := 1.0
			if down {
				sign = -1
			}
			cold, coldErr := NewCholesky(plusOuter(g, x, sign))
			if gotErr != nil {
				if coldErr == nil {
					t.Fatalf("trial %d down=%v: the pass failed (%v) but G ± xxᵀ factors cold", trial, down, gotErr)
				}
				continue
			}
			if coldErr != nil {
				t.Fatalf("trial %d down=%v: cold refactor: %v", trial, down, coldErr)
			}
			b := make([]float64, cols)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			xs, xd := make([]float64, cols), make([]float64, cols)
			if err := got.SolveInto(xs, b, make([]float64, cols)); err != nil {
				t.Fatal(err)
			}
			if err := cold.SolveInto(xd, b, make([]float64, cols)); err != nil {
				t.Fatal(err)
			}
			if !VecEqualApprox(xs, xd, 1e-8) {
				t.Fatalf("trial %d down=%v: solves differ from the cold refactor of G ± xxᵀ", trial, down)
			}
		}
	}
	if failures == 0 {
		t.Fatal("no trial reached a bad pivot; the failure half of the property went unchecked")
	}
}

func sameBits(a, b *Dense) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i, v := range a.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}
