package matrix

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randomCSR(r *rand.Rand, rows, cols int, density float64) *CSR {
	var entries []Triplet
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				entries = append(entries, Triplet{Row: i, Col: j, Val: float64(1 + r.Intn(4))})
			}
		}
	}
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		panic(err)
	}
	return m
}

func TestCSRConstructionAndAt(t *testing.T) {
	m, err := NewCSR(3, 3, []Triplet{
		{Row: 0, Col: 1, Val: 2},
		{Row: 2, Col: 0, Val: 1},
		{Row: 0, Col: 1, Val: 3}, // duplicate, summed
		{Row: 1, Col: 1, Val: 0}, // zero, dropped
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 5 {
		t.Fatalf("At(0,1) = %v, want 5 (summed)", m.At(0, 1))
	}
	if m.At(1, 1) != 0 || m.NNZ() != 2 {
		t.Fatalf("zero entry kept: nnz=%d", m.NNZ())
	}
	if m.RowNNZ(0) != 1 || m.RowNNZ(1) != 0 {
		t.Fatalf("RowNNZ wrong")
	}
	if _, err := NewCSR(2, 2, []Triplet{{Row: 2, Col: 0, Val: 1}}); err == nil {
		t.Fatal("out-of-range triplet must error")
	}
}

func TestCSRCancellingDuplicates(t *testing.T) {
	m, err := NewCSR(1, 1, []Triplet{{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 0, Val: -2}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 0 {
		t.Fatalf("cancelled duplicates must drop out, nnz=%d", m.NNZ())
	}
}

func TestCSRMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+r.Intn(10), 1+r.Intn(10)
		m := randomCSR(r, rows, cols, 0.3)
		d := m.ToDense()
		x := make([]float64, cols)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		got, err := m.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		if !VecEqualApprox(got, want, 1e-9) {
			t.Fatalf("MulVec mismatch: %v vs %v", got, want)
		}
		xr := make([]float64, rows)
		for i := range xr {
			xr[i] = r.NormFloat64()
		}
		gotT, err := m.TMulVec(xr)
		if err != nil {
			t.Fatal(err)
		}
		wantT, err := d.TMulVec(xr)
		if err != nil {
			t.Fatal(err)
		}
		if !VecEqualApprox(gotT, wantT, 1e-9) {
			t.Fatalf("TMulVec mismatch: %v vs %v", gotT, wantT)
		}
		if !m.gramSerial().EqualApprox(d.Gram(), 1e-9) {
			t.Fatal("Gram mismatch")
		}
	}
}

func TestCSRDimErrors(t *testing.T) {
	m := randomCSR(rand.New(rand.NewSource(1)), 3, 4, 0.5)
	if _, err := m.MulVec(make([]float64, 3)); err == nil {
		t.Fatal("MulVec dim mismatch must error")
	}
	if _, err := m.TMulVec(make([]float64, 4)); err == nil {
		t.Fatal("TMulVec dim mismatch must error")
	}
}

func TestSubMatrix(t *testing.T) {
	m, err := NewCSR(4, 3, []Triplet{
		{Row: 0, Col: 0, Val: 1},
		{Row: 1, Col: 1, Val: 2},
		{Row: 2, Col: 2, Val: 3},
		{Row: 3, Col: 0, Val: 4},
		{Row: 3, Col: 2, Val: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.SubMatrix([]int{3, 1}, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rows() != 2 || sub.Cols() != 2 {
		t.Fatalf("sub dims %dx%d", sub.Rows(), sub.Cols())
	}
	// Row 0 of sub = original row 3 restricted to cols (2,0) -> (5,4).
	if sub.At(0, 0) != 5 || sub.At(0, 1) != 4 {
		t.Fatalf("sub row 0 = (%v,%v)", sub.At(0, 0), sub.At(0, 1))
	}
	// Row 1 of sub = original row 1: col 1 excluded -> all zero.
	if sub.RowNNZ(1) != 0 {
		t.Fatal("excluded column leaked into submatrix")
	}
	if _, err := m.SubMatrix([]int{9}, []int{0}); err == nil {
		t.Fatal("bad row must error")
	}
	if _, err := m.SubMatrix([]int{0}, []int{9}); err == nil {
		t.Fatal("bad col must error")
	}
}

func TestAppendColumnAndColumn(t *testing.T) {
	m, err := NewCSR(3, 1, []Triplet{{Row: 0, Col: 0, Val: 1}, {Row: 2, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m.AppendColumn([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cols() != 2 || m2.At(1, 1) != 1 || m2.At(2, 1) != 1 || m2.At(0, 1) != 0 {
		t.Fatalf("AppendColumn wrong: %v", m2.ToDense())
	}
	col := m2.Column(0)
	if len(col) != 2 || col[0] != 0 || col[1] != 2 {
		t.Fatalf("Column = %v", col)
	}
}

func TestRowEntries(t *testing.T) {
	m, _ := NewCSR(2, 3, []Triplet{{Row: 0, Col: 2, Val: 7}, {Row: 0, Col: 0, Val: 1}})
	var cols []int
	var sum float64
	m.RowEntries(0, func(c int, v float64) {
		cols = append(cols, c)
		sum += v
	})
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 || sum != 8 {
		t.Fatalf("RowEntries cols=%v sum=%v", cols, sum)
	}
}

func TestPropertyCSRGramSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomCSR(r, 1+r.Intn(8), 1+r.Intn(8), 0.4)
		g := m.gramSerial()
		for i := 0; i < g.Rows(); i++ {
			for j := 0; j < g.Cols(); j++ {
				if g.At(i, j) != g.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range [][2]int{{1, 1}, {3, 9}, {9, 3}, {30, 40}} {
		h := fcmShapedCSR(t, rng, sh[0], sh[1])
		ht := h.transpose()
		if ht.Rows() != h.Cols() || ht.Cols() != h.Rows() || ht.NNZ() != h.NNZ() {
			t.Fatalf("transpose of %dx%d (%d nnz) is %dx%d (%d nnz)", h.Rows(), h.Cols(), h.NNZ(), ht.Rows(), ht.Cols(), ht.NNZ())
		}
		for i := 0; i < h.Rows(); i++ {
			for j := 0; j < h.Cols(); j++ {
				if ht.At(j, i) != h.At(i, j) {
					t.Fatalf("(%d,%d): %v, transposed %v", i, j, h.At(i, j), ht.At(j, i))
				}
			}
		}
		// At binary-searches each row, so ascending column order is part
		// of what the loop above checked; a round trip restores h.
		if !reflect.DeepEqual(ht.transpose(), h) {
			t.Fatal("transposing twice did not restore the matrix")
		}
	}
}
