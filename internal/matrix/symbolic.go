package matrix

// Symbolic factorization for the sparse Cholesky. Given the Gram
// pattern and a fill-reducing permutation, this computes — once — the
// elimination tree, the exact non-zero pattern of the factor L of
// P·G·Pᵀ, and a fundamental-supernode partition. The analysis depends
// only on the pattern, so it is cached inside SparseCholesky and reused
// across windows, ridge retries, and churn refactorizations whose Gram
// pattern is unchanged.

// SparseSymbolic is the cached pattern analysis of a sparse Cholesky
// factorization. All indices are in permuted coordinates unless noted.
type SparseSymbolic struct {
	n      int
	perm   []int32 // perm[k] = original index eliminated at step k
	iperm  []int32 // iperm[original] = permuted position
	parent []int32 // elimination tree (−1 at roots)
	colPtr []int   // L pattern: column j at rowIdx[colPtr[j]:colPtr[j+1]]
	rowIdx []int32 // rows ≥ j ascending, diagonal first
	snode  []int32 // supernode start columns, ascending, with trailing n
	// The (unpermuted) Gram lower pattern this analysis was computed
	// for, kept so a later epoch can cheaply test reusability.
	gramPtr []int
	gramRow []int32
}

// analyzeSparse orders the Gram graph with amdOrder and runs the
// symbolic factorization. g is retained by reference (pattern slices
// only) — callers must not mutate its pattern afterwards.
func analyzeSparse(g *SymSparse) *SparseSymbolic {
	perm := amdOrder(g.n, g.adjPtr, g.adj)
	return symbolicFromPerm(g, perm)
}

// symbolicFromPerm computes the symbolic factorization of P·G·Pᵀ for an
// explicit permutation (exposed separately for ordering experiments and
// tests).
func symbolicFromPerm(g *SymSparse, perm []int32) *SparseSymbolic {
	n := g.n
	s := &SparseSymbolic{
		n:       n,
		perm:    perm,
		iperm:   make([]int32, n),
		parent:  make([]int32, n),
		colPtr:  make([]int, n+1),
		gramPtr: g.colPtr,
		gramRow: g.rowIdx,
	}
	for k, p := range perm {
		s.iperm[p] = int32(k)
	}
	if n == 0 {
		s.snode = []int32{}
		return s
	}
	// Permuted strict-lower adjacency by row: for each permuted node i,
	// the permuted neighbors j < i. Built from the full adjacency so no
	// sort is needed (ereach marks instead of merging).
	lowPtr := make([]int, n+1)
	for i := 0; i < n; i++ {
		pi := s.iperm[i]
		for p := g.adjPtr[i]; p < g.adjPtr[i+1]; p++ {
			if s.iperm[g.adj[p]] < pi {
				lowPtr[pi+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		lowPtr[i+1] += lowPtr[i]
	}
	lowAdj := make([]int32, lowPtr[n])
	fill := make([]int, n)
	copy(fill, lowPtr[:n])
	for i := 0; i < n; i++ {
		pi := s.iperm[i]
		for p := g.adjPtr[i]; p < g.adjPtr[i+1]; p++ {
			if pj := s.iperm[g.adj[p]]; pj < pi {
				lowAdj[fill[pi]] = pj
				fill[pi]++
			}
		}
	}
	// Elimination tree with ancestor path compression.
	anc := make([]int32, n)
	for i := range anc {
		s.parent[i] = -1
		anc[i] = -1
	}
	for i := int32(0); int(i) < n; i++ {
		for p := lowPtr[i]; p < lowPtr[i+1]; p++ {
			for r := lowAdj[p]; r != -1 && r != i; {
				nxt := anc[r]
				anc[r] = i
				if nxt == -1 {
					s.parent[r] = i
				}
				r = nxt
			}
		}
	}
	// Column counts via row subtrees (ereach): row i of L is non-zero at
	// exactly the columns on the elimination-tree paths from each strict
	// lower Gram neighbor j up to (but excluding) i.
	stamp := make([]int32, n)
	for i := range stamp {
		stamp[i] = -1
	}
	counts := make([]int, n) // strictly-below-diagonal count per column
	ereach := func(i int32, visit func(k int32)) {
		for p := lowPtr[i]; p < lowPtr[i+1]; p++ {
			for k := lowAdj[p]; k < i && stamp[k] != i; k = s.parent[k] {
				stamp[k] = i
				visit(k)
			}
		}
	}
	for i := int32(0); int(i) < n; i++ {
		ereach(i, func(k int32) { counts[k]++ })
	}
	for j := 0; j < n; j++ {
		s.colPtr[j+1] = s.colPtr[j] + 1 + counts[j] // +1 for the diagonal
	}
	s.rowIdx = make([]int32, s.colPtr[n])
	for i := range fill {
		fill[i] = s.colPtr[i]
	}
	for j := int32(0); int(j) < n; j++ {
		s.rowIdx[fill[j]] = j // diagonal first
		fill[j]++
	}
	for i := range stamp {
		stamp[i] = -1
	}
	// Rows visit columns in ascending i, so each column's row list comes
	// out ascending with the diagonal already in front.
	for i := int32(0); int(i) < n; i++ {
		ereach(i, func(k int32) {
			s.rowIdx[fill[k]] = i
			fill[k]++
		})
	}
	// Fundamental supernodes: columns j and j+1 merge when j+1 is j's
	// etree parent and pattern(j) = {j} ∪ pattern(j+1) — detected by the
	// standard count test.
	s.snode = append(s.snode, 0)
	for j := 1; j < n; j++ {
		width := s.colPtr[j] - s.colPtr[j-1]
		if !(s.parent[j-1] == int32(j) && width == s.colPtr[j+1]-s.colPtr[j]+1) {
			s.snode = append(s.snode, int32(j))
		}
	}
	s.snode = append(s.snode, int32(n))
	return s
}

// FactorNNZ reports the stored entry count of the factor pattern.
func (s *SparseSymbolic) FactorNNZ() int { return len(s.rowIdx) }

// Matches reports whether this analysis was computed for exactly the
// Gram pattern of g, making it reusable for a numeric refactorization.
func (s *SparseSymbolic) Matches(g *SymSparse) bool {
	if s.n != g.n || len(s.gramRow) != len(g.rowIdx) {
		return false
	}
	for j := 0; j <= s.n; j++ {
		if s.gramPtr[j] != g.colPtr[j] {
			return false
		}
	}
	for p, r := range s.gramRow {
		if g.rowIdx[p] != r {
			return false
		}
	}
	return true
}
