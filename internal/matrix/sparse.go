package matrix

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix. FOCES flow-counter matrices are
// extremely sparse (a rule row has 1s only for the flows matching it),
// so all heavy products are computed in CSR form.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	val        []float64
}

// Triplet is one (row, col, value) entry for sparse construction.
type Triplet struct {
	Row, Col int
	Val      float64
}

// NewCSR builds a CSR matrix from triplets. Duplicate (row, col) entries
// are summed. Entries with zero value are kept out.
func NewCSR(rows, cols int, entries []Triplet) (*CSR, error) {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("matrix: triplet (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Triplet, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{rows: rows, cols: cols, rowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.colIdx = append(m.colIdx, sorted[i].Col)
			m.val = append(m.val, v)
			m.rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m, nil
}

// Rows reports the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ reports the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.val) }

// RowNNZ reports the number of non-zeros in row i.
func (m *CSR) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }

// RowEntries invokes fn for every stored entry of row i.
func (m *CSR) RowEntries(i int, fn func(col int, v float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.val[k])
	}
}

// At returns element (i, j) (zero when not stored).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.val[k]
	}
	return 0
}

// MulVec computes m * x.
func (m *CSR) MulVec(x []float64) ([]float64, error) {
	y := make([]float64, m.rows)
	if err := m.MulVecInto(y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// MulVecInto computes m * x into dst (length Rows) without allocating.
func (m *CSR) MulVecInto(dst, x []float64) error {
	if len(x) != m.cols {
		return fmt.Errorf("matrix: csr mulvec dims %dx%d vs %d", m.rows, m.cols, len(x))
	}
	if len(dst) != m.rows {
		return fmt.Errorf("matrix: csr mulvec dst %d vs %d rows", len(dst), m.rows)
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.val[k] * x[m.colIdx[k]]
		}
		dst[i] = s
	}
	return nil
}

// TMulVec computes mᵀ * x.
func (m *CSR) TMulVec(x []float64) ([]float64, error) {
	y := make([]float64, m.cols)
	if err := m.TMulVecInto(y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// TMulVecInto computes mᵀ * x into dst (length Cols) without
// allocating.
func (m *CSR) TMulVecInto(dst, x []float64) error {
	if len(x) != m.rows {
		return fmt.Errorf("matrix: csr tmulvec dims %dx%d vs %d", m.rows, m.cols, len(x))
	}
	if len(dst) != m.cols {
		return fmt.Errorf("matrix: csr tmulvec dst %d vs %d cols", len(dst), m.cols)
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			dst[m.colIdx[k]] += m.val[k] * xi
		}
	}
	return nil
}

// transpose returns mᵀ as a new CSR in O(nnz): one counting pass over
// the columns, then a scatter that visits rows in ascending order so
// every transposed row's column indices come out ascending.
func (m *CSR) transpose() *CSR {
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, len(m.val)),
		val:    make([]float64, len(m.val)),
	}
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for c := 0; c < m.cols; c++ {
		t.rowPtr[c+1] += t.rowPtr[c]
	}
	fill := make([]int, m.cols)
	copy(fill, t.rowPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			p := fill[m.colIdx[k]]
			t.colIdx[p] = i
			t.val[p] = m.val[k]
			fill[m.colIdx[k]]++
		}
	}
	return t
}

// ToDense expands the matrix to dense form (for tests and small
// examples).
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.val[k])
		}
	}
	return d
}

// SubMatrix extracts the CSR sub-matrix with the given row and column
// subsets (in the given order). Column indices are remapped to the
// position of each column in cols. This implements FCM slicing (§IV-B).
func (m *CSR) SubMatrix(rows, cols []int) (*CSR, error) {
	colPos := make(map[int]int, len(cols))
	for p, c := range cols {
		if c < 0 || c >= m.cols {
			return nil, fmt.Errorf("matrix: submatrix col %d outside %d", c, m.cols)
		}
		colPos[c] = p
	}
	var entries []Triplet
	for p, r := range rows {
		if r < 0 || r >= m.rows {
			return nil, fmt.Errorf("matrix: submatrix row %d outside %d", r, m.rows)
		}
		for k := m.rowPtr[r]; k < m.rowPtr[r+1]; k++ {
			if cp, ok := colPos[m.colIdx[k]]; ok {
				entries = append(entries, Triplet{Row: p, Col: cp, Val: m.val[k]})
			}
		}
	}
	return NewCSR(len(rows), len(cols), entries)
}

// AppendColumn returns a new CSR with one extra column whose entries are
// given by rows with value 1 (used to form H̃ = H ∪ {h'} for the
// detectability analysis).
func (m *CSR) AppendColumn(rowsWithOne []int) (*CSR, error) {
	entries := make([]Triplet, 0, m.NNZ()+len(rowsWithOne))
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			entries = append(entries, Triplet{Row: i, Col: m.colIdx[k], Val: m.val[k]})
		}
	}
	for _, r := range rowsWithOne {
		entries = append(entries, Triplet{Row: r, Col: m.cols, Val: 1})
	}
	return NewCSR(m.rows, m.cols+1, entries)
}

// Column returns the row indices of non-zero entries in column j, in
// ascending order. Each call walks every row with a binary search
// (O(rows·log nnz)); passes that visit many columns — sparse Gram
// assembly, symbolic analysis — must build a ColumnIndex once and sweep
// it instead.
func (m *CSR) Column(j int) []int {
	var out []int
	for i := 0; i < m.rows; i++ {
		if m.At(i, j) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// ColumnIndex is a transient column-major view of a CSR matrix: for
// every column it records the positions of that column's entries in the
// CSR storage, in ascending row order, plus the owning row's end
// offset. Building it is one O(nnz) counting pass; afterwards each
// column sweep costs O(nnz(column)) instead of the O(rows·log nnz)
// binary-search walk that repeated CSR.Column calls perform. The index
// is a snapshot — it must be rebuilt if the matrix changes (CSR values
// are immutable in practice, so in this codebase it never is).
type ColumnIndex struct {
	m      *CSR
	colPtr []int   // column c's entries sit at pos[colPtr[c]:colPtr[c+1]]
	pos    []int32 // positions into m.colIdx/m.val, ascending row order
	end    []int32 // owning row's end offset m.rowPtr[row+1], per position
	row    []int32 // owning row, per position
}

// NewColumnIndex builds the column index of m in O(nnz).
func NewColumnIndex(m *CSR) *ColumnIndex {
	nnz := len(m.val)
	ix := &ColumnIndex{
		m:      m,
		colPtr: make([]int, m.cols+1),
		pos:    make([]int32, nnz),
		end:    make([]int32, nnz),
		row:    make([]int32, nnz),
	}
	for _, c := range m.colIdx {
		ix.colPtr[c+1]++
	}
	for c := 0; c < m.cols; c++ {
		ix.colPtr[c+1] += ix.colPtr[c]
	}
	fill := make([]int, m.cols)
	copy(fill, ix.colPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		end := int32(m.rowPtr[i+1])
		for k := m.rowPtr[i]; int32(k) < end; k++ {
			c := m.colIdx[k]
			p := fill[c]
			ix.pos[p] = int32(k)
			ix.end[p] = end
			ix.row[p] = int32(i)
			fill[c]++
		}
	}
	return ix
}

// ColNNZ reports the number of stored entries in column j.
func (ix *ColumnIndex) ColNNZ(j int) int { return ix.colPtr[j+1] - ix.colPtr[j] }

// Column appends the row indices of column j's entries (ascending) to
// dst and returns the extended slice.
func (ix *ColumnIndex) Column(j int, dst []int) []int {
	for p := ix.colPtr[j]; p < ix.colPtr[j+1]; p++ {
		dst = append(dst, int(ix.row[p]))
	}
	return dst
}

// ColumnEntries invokes fn for every entry of column j in ascending row
// order.
func (ix *ColumnIndex) ColumnEntries(j int, fn func(row int, v float64)) {
	for p := ix.colPtr[j]; p < ix.colPtr[j+1]; p++ {
		fn(int(ix.row[p]), ix.m.val[ix.pos[p]])
	}
}
