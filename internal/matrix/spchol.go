package matrix

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Sparse direct Cholesky, the one factorization PrepareLS uses. The
// factor of P·G·Pᵀ = L·Lᵀ is stored in the pattern computed by the
// symbolic analysis (lower CSC, diagonal first), and the numeric phase
// is left-looking supernodal: each supernode gathers its columns into a
// dense panel, applies the contributions of descendant supernodes as
// dense outer products over contiguous CSC column suffixes, factors the
// dense diagonal block in place with the serial sweep, and solves the
// sub-diagonal panel rows against the block's triangle. A Gram that
// fills in is just a wider supernode. Everything is serial and
// deterministic: supernodes are processed in ascending order and each
// descendant list is maintained by the same push discipline on every
// run, so the factor is bitwise the same at any GOMAXPROCS.

// ErrSparseUpdateFill is returned by SparseCholesky.Update/Downdate
// when the rank-one vector would create fill outside the factor's
// symbolic pattern. The factor is NOT modified in that case — the
// structural precheck runs before any value is touched — so callers
// (the churn manager) can fall back to a full refactorization while the
// original factor keeps serving solves.
var ErrSparseUpdateFill = errors.New("matrix: rank-one update would fill outside the factor pattern")

// SparseCholesky is a sparse Cholesky factorization sharing an
// immutable cached symbolic analysis. Value storage is aligned with the
// symbolic pattern, so clones and numeric refactorizations reuse the
// analysis for free.
type SparseCholesky struct {
	sym      *SparseSymbolic
	val      []float64
	poisoned bool
	rank     *rankOneScratch // Update/Downdate workspace, made on first use; never cloned
}

// rankOneScratch is the O(n) workspace of a sparse rank-one pass, kept
// on the factor so that a run of Update/Downdate calls (one per masked
// row of a degraded window) pays for it once. Every call leaves work,
// inWp and seen all-zero again by undoing only the entries it touched.
type rankOneScratch struct {
	work    []float64
	inWp    []bool
	seen    []bool
	stamp   []int32 // stamp[i] == k only ever says "row i is in column k's pattern", which stays true across calls
	wp      []int32
	closure []int32
}

func (c *SparseCholesky) rankOneScratch() *rankOneScratch {
	if c.rank == nil {
		n := c.sym.n
		sc := &rankOneScratch{
			work:  make([]float64, n),
			inWp:  make([]bool, n),
			seen:  make([]bool, n),
			stamp: make([]int32, n),
		}
		for i := range sc.stamp {
			sc.stamp[i] = -1
		}
		c.rank = sc
	}
	return c.rank
}

// NewSparseCholesky analyzes and factors the sparse symmetric
// positive-definite matrix g. Use newSparseCholeskyWith to reuse a
// cached analysis.
func NewSparseCholesky(g *SymSparse) (*SparseCholesky, error) {
	return newSparseCholeskyWith(g, analyzeSparse(g))
}

// newSparseCholeskyWith numerically factors g under a previously
// computed symbolic analysis (which must have been computed for exactly
// g's pattern).
func newSparseCholeskyWith(g *SymSparse, sym *SparseSymbolic) (*SparseCholesky, error) {
	n := sym.n
	c := &SparseCholesky{sym: sym, val: make([]float64, sym.colPtr[n])}
	if n == 0 {
		return c, nil
	}
	// Permute G's lower triangle into permuted-lower CSC lists (rows
	// within a column unsorted — the panel scatter does not care).
	aPtr := make([]int, n+1)
	for j := 0; j < n; j++ {
		pj := sym.iperm[j]
		for p := g.colPtr[j]; p < g.colPtr[j+1]; p++ {
			pr := sym.iperm[g.rowIdx[p]]
			if pr < pj {
				aPtr[pr+1]++
			} else {
				aPtr[pj+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		aPtr[j+1] += aPtr[j]
	}
	aRow := make([]int32, aPtr[n])
	aVal := make([]float64, aPtr[n])
	fill := make([]int, n)
	copy(fill, aPtr[:n])
	for j := 0; j < n; j++ {
		pj := sym.iperm[j]
		for p := g.colPtr[j]; p < g.colPtr[j+1]; p++ {
			pr := sym.iperm[g.rowIdx[p]]
			col, row := pj, pr
			if pr < pj {
				col, row = pr, pj
			}
			aRow[fill[col]] = row
			aVal[fill[col]] = g.val[p]
			fill[col]++
		}
	}
	// Supernode bookkeeping.
	snode := sym.snode
	nsup := len(snode) - 1
	snodeOf := make([]int32, n)
	maxPanel := 0
	for s := 0; s < nsup; s++ {
		c0, c1 := int(snode[s]), int(snode[s+1])
		w := c1 - c0
		nr := sym.colPtr[c0+1] - sym.colPtr[c0]
		if nr*w > maxPanel {
			maxPanel = nr * w
		}
		for j := c0; j < c1; j++ {
			snodeOf[j] = int32(s)
		}
	}
	head := make([]int32, nsup)
	dnext := make([]int32, nsup)
	dptr := make([]int, nsup)
	for s := range head {
		head[s] = -1
	}
	local := make([]int32, n)
	panel := make([]float64, maxPanel)
	colPtr, rowIdx := sym.colPtr, sym.rowIdx
	for s := 0; s < nsup; s++ {
		c0, c1 := int(snode[s]), int(snode[s+1])
		w := c1 - c0
		rr := rowIdx[colPtr[c0]:colPtr[c0+1]]
		nr := len(rr)
		for t, r := range rr {
			local[r] = int32(t)
		}
		pn := panel[:nr*w]
		for i := range pn {
			pn[i] = 0
		}
		// Scatter the permuted Gram columns of this supernode.
		for j := c0; j < c1; j++ {
			for p := aPtr[j]; p < aPtr[j+1]; p++ {
				pn[int(local[aRow[p]])*w+(j-c0)] += aVal[p]
			}
		}
		// Apply descendant supernode contributions. A descendant d sits in
		// s's list iff its next unconsumed pattern row falls inside
		// [c0,c1); its contribution is the outer product of the pattern
		// suffix starting at that row.
		for head[s] != -1 {
			d := head[s]
			head[s] = dnext[d]
			dc0 := int(snode[d])
			wd := int(snode[d+1]) - dc0
			rd := rowIdx[colPtr[dc0]:colPtr[dc0+1]]
			p0 := dptr[d]
			q := p0
			for q < len(rd) && rd[q] < int32(c1) {
				q++
			}
			for jc := 0; jc < wd; jc++ {
				// Column dc0+jc stores pattern suffix rd[jc:], so the value
				// of L[rd[t], dc0+jc] sits at val[colPtr[dc0+jc]+t-jc].
				base := colPtr[dc0+jc] - jc
				for a := p0; a < q; a++ {
					la := c.val[base+a]
					if la == 0 {
						continue
					}
					tcol := int(local[rd[a]])
					for b := a; b < len(rd); b++ {
						pn[int(local[rd[b]])*w+tcol] -= la * c.val[base+b]
					}
				}
			}
			dptr[d] = q
			if q < len(rd) {
				ns := snodeOf[rd[q]]
				dnext[d] = head[ns]
				head[ns] = d
			}
		}
		if err := cholUnblockedStride(pn, w, c0); err != nil {
			return nil, err
		}
		// Triangular panel solve for the sub-diagonal rows.
		for r := w; r < nr; r++ {
			prow := pn[r*w : r*w+w]
			for j := 0; j < w; j++ {
				ljRow := pn[j*w : j*w+w]
				sv := prow[j]
				for k := 0; k < j; k++ {
					sv -= prow[k] * ljRow[k]
				}
				prow[j] = sv / ljRow[j]
			}
		}
		// Scatter the panel back into the factor's CSC storage.
		for jc := 0; jc < w; jc++ {
			dst := colPtr[c0+jc]
			for t := jc; t < nr; t++ {
				c.val[dst] = pn[t*w+jc]
				dst++
			}
		}
		if w < nr {
			dptr[s] = w
			ns := snodeOf[rr[w]]
			dnext[s] = head[ns]
			head[ns] = int32(s)
		}
	}
	return c, nil
}

// cholUnblockedStride runs the serial reference Cholesky sweep in place
// on a w×w row-major block (the leading w columns of a panel whose row
// stride is also w). col0 labels errors with the global column.
func cholUnblockedStride(pn []float64, w, col0 int) error {
	for j := 0; j < w; j++ {
		pj := pn[j*w : j*w+w]
		diag := pj[j]
		for k := 0; k < j; k++ {
			diag -= pj[k] * pj[k]
		}
		if diag <= 0 || math.IsNaN(diag) {
			return fmt.Errorf("%w: pivot %d = %g", ErrNotPositiveDefinite, col0+j, diag)
		}
		d := math.Sqrt(diag)
		pj[j] = d
		for i := j + 1; i < w; i++ {
			pi := pn[i*w : i*w+w]
			sv := pi[j]
			for k := 0; k < j; k++ {
				sv -= pi[k] * pj[k]
			}
			pi[j] = sv / d
		}
	}
	return nil
}

// N reports the factored dimension.
func (c *SparseCholesky) N() int { return c.sym.n }

// Valid reports whether the factor is usable: false once a failed
// Update/Downdate has poisoned it.
func (c *SparseCholesky) Valid() bool { return !c.poisoned }

// FactorNNZ reports the stored entry count of the factor.
func (c *SparseCholesky) FactorNNZ() int { return len(c.val) }

// Clone returns an independent copy of the numeric factor sharing the
// immutable symbolic analysis, so callers can derive an updated factor
// while the original keeps serving solves. A poisoned factor clones
// poisoned.
func (c *SparseCholesky) Clone() *SparseCholesky {
	v := make([]float64, len(c.val))
	copy(v, c.val)
	return &SparseCholesky{sym: c.sym, val: v, poisoned: c.poisoned}
}

// SolveInto solves G x = b into dst without allocating, using scratch
// (length n) for the permuted intermediate. dst may alias b; scratch
// must not alias either.
func (c *SparseCholesky) SolveInto(dst, b, scratch []float64) error {
	n := c.sym.n
	if len(b) != n {
		return fmt.Errorf("matrix: sparse cholesky solve dim %d vs %d", len(b), n)
	}
	if len(dst) != n || len(scratch) != n {
		return fmt.Errorf("matrix: sparse cholesky solve buffers %d/%d vs %d", len(dst), len(scratch), n)
	}
	if c.poisoned {
		return ErrFactorPoisoned
	}
	perm := c.sym.perm
	colPtr, rowIdx := c.sym.colPtr, c.sym.rowIdx
	for i := 0; i < n; i++ {
		scratch[i] = b[perm[i]]
	}
	// Forward: L y = P b, scattering each column's contribution.
	for j := 0; j < n; j++ {
		p := colPtr[j]
		xj := scratch[j] / c.val[p]
		scratch[j] = xj
		for t := p + 1; t < colPtr[j+1]; t++ {
			scratch[rowIdx[t]] -= c.val[t] * xj
		}
	}
	// Backward: Lᵀ x = y, gathering down each column.
	for j := n - 1; j >= 0; j-- {
		p := colPtr[j]
		sv := scratch[j]
		for t := p + 1; t < colPtr[j+1]; t++ {
			sv -= c.val[t] * scratch[rowIdx[t]]
		}
		scratch[j] = sv / c.val[p]
	}
	for i := 0; i < n; i++ {
		dst[perm[i]] = scratch[i]
	}
	return nil
}

// Update rewrites the factor of G into the factor of G + xxᵀ with
// Givens rotations confined to the elimination-tree closure of x's
// non-zero pattern — O(size of the affected columns) instead of O(n²).
// A structural precheck runs first: if the rotation would create fill
// outside the symbolic pattern, ErrSparseUpdateFill is returned with
// the factor untouched. A numeric failure mid-pass (a zero, negative or
// NaN pivot) poisons the factor: columns are rotated in ascending
// order, so a bad pivot at column k leaves the earlier ones already
// rewritten, and rather than roll back, every later SolveInto, Update
// and Downdate returns ErrFactorPoisoned. Callers clone before updating
// and throw the clone away on failure. x is not modified.
func (c *SparseCholesky) Update(x []float64) error { return c.rankOne(x, false) }

// Downdate rewrites the factor of G into the factor of G − xxᵀ with
// hyperbolic rotations, under the same structural precheck and
// poison-on-numeric-failure contract as Update. x is not modified.
func (c *SparseCholesky) Downdate(x []float64) error { return c.rankOne(x, true) }

func (c *SparseCholesky) rankOne(x []float64, down bool) error {
	sym := c.sym
	n := sym.n
	if len(x) != n {
		return fmt.Errorf("matrix: sparse cholesky rank-one dim %d vs %d", len(x), n)
	}
	if c.poisoned {
		return ErrFactorPoisoned
	}
	sc := c.rankOneScratch()
	work, inWp, seen, stamp := sc.work, sc.inWp, sc.seen, sc.stamp
	wp, closure := sc.wp[:0], sc.closure[:0]
	// Every non-zero of work lies on wp and every mark of seen on
	// closure, so this leaves the scratch clean on every return path.
	defer func() {
		for _, i := range wp {
			work[i], inWp[i] = 0, false
		}
		for _, j := range closure {
			seen[j] = false
		}
		sc.wp, sc.closure = wp, closure
	}()
	for i, v := range x {
		if v != 0 {
			pi := sym.iperm[i]
			work[pi] = v
			inWp[pi] = true
			wp = append(wp, pi)
		}
	}
	if len(wp) == 0 {
		return nil
	}
	// Affected columns: the union of elimination-tree paths from every
	// seed to its root. All structurally reachable work indices stay
	// inside this set, because every column pattern consists of
	// elimination-tree ancestors.
	for _, k := range wp {
		for j := k; j != -1 && !seen[j]; j = sym.parent[j] {
			seen[j] = true
			closure = append(closure, j)
		}
	}
	slices.Sort(closure)
	// Structural precheck (no mutation): walking the rotation forward,
	// the working vector at column k is non-zero only on wp; every such
	// row must be present in column k's stored pattern or the rotation
	// would need fill.
	for _, k := range closure {
		if !inWp[k] {
			continue
		}
		for t := sym.colPtr[k]; t < sym.colPtr[k+1]; t++ {
			stamp[sym.rowIdx[t]] = k
		}
		for _, i := range wp {
			if i > k && stamp[i] != k {
				return fmt.Errorf("%w: column %d needs row %d", ErrSparseUpdateFill, k, i)
			}
		}
		for t := sym.colPtr[k] + 1; t < sym.colPtr[k+1]; t++ {
			if r := sym.rowIdx[t]; !inWp[r] {
				inWp[r] = true
				wp = append(wp, r)
			}
		}
	}
	// Numeric pass: identical arithmetic to the textbook dense rank-one
	// sweep on the affected columns (columns with a zero working value are exact
	// rotation no-ops and are skipped).
	for _, k := range closure {
		wk := work[k]
		if wk == 0 {
			continue
		}
		p := sym.colPtr[k]
		lkk := c.val[p]
		var r float64
		if down {
			d := (lkk - wk) * (lkk + wk)
			if d <= 0 || math.IsNaN(d) {
				c.poisoned = true
				return fmt.Errorf("%w: downdate pivot %d = %g", ErrNotPositiveDefinite, k, d)
			}
			r = math.Sqrt(d)
		} else {
			r = math.Hypot(lkk, wk)
			if lkk <= 0 || r == 0 || math.IsNaN(r) {
				c.poisoned = true
				return fmt.Errorf("%w: update pivot %d = %g", ErrNotPositiveDefinite, k, lkk)
			}
		}
		cosv := r / lkk
		sinv := wk / lkk
		c.val[p] = r
		if down {
			for t := p + 1; t < sym.colPtr[k+1]; t++ {
				i := sym.rowIdx[t]
				lik := (c.val[t] - sinv*work[i]) / cosv
				work[i] = cosv*work[i] - sinv*lik
				c.val[t] = lik
			}
		} else {
			for t := p + 1; t < sym.colPtr[k+1]; t++ {
				i := sym.rowIdx[t]
				lik := (c.val[t] + sinv*work[i]) / cosv
				work[i] = cosv*work[i] - sinv*lik
				c.val[t] = lik
			}
		}
	}
	return nil
}
