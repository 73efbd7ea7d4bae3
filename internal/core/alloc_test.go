package core

import (
	"math/rand"
	"testing"

	"foces/internal/matrix"
)

// TestDetectAllocBudget: a warm Detect allocates what it returns and
// nothing else — XHat, and one array shared by YHat and Delta — on
// primal and dual engines alike. The two halves of that array must stay
// independently appendable.
func TestDetectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(7))
	for _, sh := range [][2]int{{120, 40}, {40, 120}} {
		rows, cols := sh[0], sh[1]
		var trips []matrix.Triplet
		for i := 0; i < rows; i++ {
			for k := 0; k < 4; k++ {
				trips = append(trips, matrix.Triplet{Row: i, Col: rng.Intn(cols), Val: 1})
			}
		}
		h, err := matrix.NewCSR(rows, cols, trips)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDetector(h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d.PrepareStats().Dual != (rows < cols) {
			t.Fatalf("%dx%d engine: dual=%v", rows, cols, d.PrepareStats().Dual)
		}
		y := make([]float64, rows)
		for i := range y {
			y[i] = float64(500 + rng.Intn(1000))
		}
		res, err := d.Detect(y) // also warms the scratch pool
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(50, func() {
			if _, err := d.Detect(y); err != nil {
				t.Fatal(err)
			}
		}); got > 2 {
			t.Errorf("%dx%d engine: Detect allocates %.0f per call, budget 2", rows, cols, got)
		}
		last := res.Delta[0]
		res.YHat = append(res.YHat, -1)
		if res.Delta[0] != last || len(res.Delta) != rows {
			t.Errorf("%dx%d engine: appending to YHat wrote into Delta", rows, cols)
		}
	}
}
