package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceRankOne is the rank-one sweep as it stood before it learned
// to write Lᵀ in place and skip zero working entries: every column is
// rotated through the strided L accessors and Lᵀ is rebuilt by a fresh
// transpose at the end. It is kept here as the reference the production
// routine must equal bit for bit.
func referenceRankOne(c *Cholesky, x []float64, down bool) error {
	if c.poisoned {
		return ErrFactorPoisoned
	}
	work := make([]float64, c.n)
	copy(work, x)
	for k := 0; k < c.n; k++ {
		lkk := c.l.At(k, k)
		var r float64
		if down {
			d := (lkk - work[k]) * (lkk + work[k])
			if d <= 0 || math.IsNaN(d) {
				c.poisoned = true
				return fmt.Errorf("%w: downdate pivot %d = %g", ErrNotPositiveDefinite, k, d)
			}
			r = math.Sqrt(d)
		} else {
			r = math.Hypot(lkk, work[k])
			if lkk <= 0 || r == 0 || math.IsNaN(r) {
				c.poisoned = true
				return fmt.Errorf("%w: update pivot %d = %g", ErrNotPositiveDefinite, k, lkk)
			}
		}
		cos := r / lkk
		sin := work[k] / lkk
		c.l.Set(k, k, r)
		for i := k + 1; i < c.n; i++ {
			var lik float64
			if down {
				lik = (c.l.At(i, k) - sin*work[i]) / cos
			} else {
				lik = (c.l.At(i, k) + sin*work[i]) / cos
			}
			work[i] = cos*work[i] - sin*lik
			c.l.Set(i, k, lik)
		}
	}
	c.lt = c.l.Transpose()
	return nil
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

// TestRankOneBitwiseEqualsReference: over random SPD factors — dense,
// and block-diagonal so zero working entries survive the sweep — and
// dense, sparse and single-nonzero x, Update and Downdate leave exactly
// the bits the reference loop leaves in L and Lᵀ; on a bad pivot both
// fail at the same column with the same error, poison the factor, and
// agree on the columns already rotated.
func TestRankOneBitwiseEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	failures := 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(24)
		a := randomSPD(rng, n)
		if trial%2 == 1 {
			// Block-diagonal SPD: L has the same blocks, so a sparse x
			// keeps whole column ranges at zero.
			blk := 1 + rng.Intn(4)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i/blk != j/blk {
						a.Set(i, j, 0)
					}
				}
			}
			for i := 0; i < n; i++ {
				a.Add(i, i, float64(blk)*4)
			}
		}
		base, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x := make([]float64, n)
		switch trial % 3 {
		case 0: // dense
			for i := range x {
				x[i] = rng.NormFloat64()
			}
		case 1: // sparse
			for i := range x {
				if rng.Intn(4) == 0 {
					x[i] = rng.NormFloat64()
				}
			}
		case 2: // one nonzero — a rule row matched by a single flow
			x[rng.Intn(n)] = rng.NormFloat64()
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
		for _, down := range []bool{false, true} {
			got, want := base.Clone(), base.Clone()
			gotErr := got.rankOne(x, down)
			wantErr := referenceRankOne(want, x, down)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("trial %d down=%v: error %v, reference %v", trial, down, gotErr, wantErr)
			}
			if gotErr != nil {
				failures++
			}
			if got.poisoned != want.poisoned {
				t.Fatalf("trial %d down=%v: poisoned %v, reference %v", trial, down, got.poisoned, want.poisoned)
			}
			if !sameBits(got.l, want.l) {
				t.Fatalf("trial %d down=%v (err %v): L differs from the reference\ngot\n%v\nwant\n%v", trial, down, gotErr, got.l, want.l)
			}
			// The reference leaves Lᵀ stale when it fails; only a
			// completed pass has a transpose to compare.
			if gotErr == nil && !sameBits(got.lt, want.lt) {
				t.Fatalf("trial %d down=%v: Lᵀ differs from the reference", trial, down)
			}
		}
	}
	if failures == 0 {
		t.Fatal("no trial reached a bad pivot; the failure half of the property went unchecked")
	}
}
