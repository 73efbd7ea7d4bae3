package matrix

import (
	"fmt"
	"slices"
)

// SymSparse is a symmetric sparse matrix stored as its lower triangle
// in compressed-sparse-column form (each column holds its diagonal
// entry first, then strictly-lower rows in ascending order), plus the
// full off-diagonal adjacency pattern that the fill-reducing ordering
// and the elimination-tree analysis walk. It is the sparse counterpart
// of the dense Gram HᵀH: assembly never materializes an n×n array, so
// memory is O(nnz) where the dense Gram is O(n²).
//
// A diagonal slot is always stored for every column, even when its
// value is zero (a structurally empty H column). That keeps the
// factorization pattern closed under ridge regularization: AddRidge
// never changes the pattern, so a cached symbolic analysis stays valid
// across the not-positive-definite retry.
type SymSparse struct {
	n      int
	colPtr []int   // lower triangle: column j at rowIdx/val[colPtr[j]:colPtr[j+1]]
	rowIdx []int32 // rows ≥ j, ascending; rowIdx[colPtr[j]] == j (diagonal)
	val    []float64
	adjPtr []int // full off-diagonal adjacency, ascending neighbors per node
	adj    []int32
}

// SymGram assembles mᵀ*m in sparse symmetric form. Cost is
// O(nnz + Σᵢ nnz(rowᵢ)²) time and O(nnz(Gram)) memory; it uses a
// ColumnIndex so each Gram column a is produced by sweeping only the
// rows that actually hold column a.
func (m *CSR) SymGram() *SymSparse {
	n := m.cols
	g := &SymSparse{n: n, colPtr: make([]int, n+1)}
	if n == 0 {
		g.adjPtr = make([]int, 1)
		return g
	}
	ix := NewColumnIndex(m)
	w := make([]float64, n)
	marked := make([]bool, n)
	pattern := make([]int32, 0, 64)
	for a := 0; a < n; a++ {
		// Force the diagonal slot even for empty columns.
		pattern = append(pattern[:0], int32(a))
		marked[a] = true
		for p := ix.colPtr[a]; p < ix.colPtr[a+1]; p++ {
			k := int(ix.pos[p])
			end := int(ix.end[p])
			va := m.val[k]
			// Entries at positions ≥ k in this row have column ≥ a, which
			// is exactly the lower triangle of the Gram column.
			for q := k; q < end; q++ {
				b := m.colIdx[q]
				if !marked[b] {
					marked[b] = true
					pattern = append(pattern, int32(b))
				}
				w[b] += va * m.val[q]
			}
		}
		slices.Sort(pattern)
		for _, b := range pattern {
			g.rowIdx = append(g.rowIdx, b)
			g.val = append(g.val, w[b])
			w[b] = 0
			marked[b] = false
		}
		g.colPtr[a+1] = len(g.rowIdx)
	}
	g.buildAdjacency()
	return g
}

// buildAdjacency mirrors the strict lower triangle into a full
// off-diagonal adjacency list with ascending neighbors per node.
func (g *SymSparse) buildAdjacency() {
	n := g.n
	deg := make([]int, n)
	for j := 0; j < n; j++ {
		for p := g.colPtr[j] + 1; p < g.colPtr[j+1]; p++ {
			deg[j]++
			deg[g.rowIdx[p]]++
		}
	}
	g.adjPtr = make([]int, n+1)
	for j := 0; j < n; j++ {
		g.adjPtr[j+1] = g.adjPtr[j] + deg[j]
	}
	g.adj = make([]int32, g.adjPtr[n])
	fill := make([]int, n)
	copy(fill, g.adjPtr[:n])
	// Scanning columns in ascending order appends, for each node, first
	// its smaller neighbors (while scanning their columns) and then its
	// larger ones (while scanning its own column), both ascending — so
	// every adjacency list comes out sorted without an explicit sort.
	for j := 0; j < n; j++ {
		for p := g.colPtr[j] + 1; p < g.colPtr[j+1]; p++ {
			r := g.rowIdx[p]
			g.adj[fill[r]] = int32(j)
			fill[r]++
		}
		for p := g.colPtr[j] + 1; p < g.colPtr[j+1]; p++ {
			g.adj[fill[j]] = g.rowIdx[p]
			fill[j]++
		}
	}
}

// N reports the dimension.
func (g *SymSparse) N() int { return g.n }

// NNZLower reports the stored lower-triangle entry count (including the
// always-present diagonal).
func (g *SymSparse) NNZLower() int { return len(g.rowIdx) }

// Density reports the fraction of the full n×n matrix that is
// structurally non-zero (counting both triangles; forced diagonal slots
// included).
func (g *SymSparse) Density() float64 {
	if g.n == 0 {
		return 0
	}
	full := 2*len(g.rowIdx) - g.n // mirror off-diagonals, count diag once
	return float64(full) / (float64(g.n) * float64(g.n))
}

// Trace returns the sum of diagonal entries.
func (g *SymSparse) Trace() float64 {
	var t float64
	for j := 0; j < g.n; j++ {
		t += g.val[g.colPtr[j]]
	}
	return t
}

// AddRidge adds r to every diagonal entry. The pattern is unchanged
// because diagonal slots are always stored.
func (g *SymSparse) AddRidge(r float64) {
	for j := 0; j < g.n; j++ {
		g.val[g.colPtr[j]] += r
	}
}

// symCheck validates structural invariants (diag-first ascending
// columns); used by tests.
func (g *SymSparse) symCheck() error {
	for j := 0; j < g.n; j++ {
		lo, hi := g.colPtr[j], g.colPtr[j+1]
		if lo >= hi || g.rowIdx[lo] != int32(j) {
			return fmt.Errorf("matrix: symsparse column %d missing diagonal", j)
		}
		for p := lo + 1; p < hi; p++ {
			if g.rowIdx[p] <= g.rowIdx[p-1] {
				return fmt.Errorf("matrix: symsparse column %d rows not ascending", j)
			}
		}
	}
	return nil
}
