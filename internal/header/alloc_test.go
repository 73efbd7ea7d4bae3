// Allocation budgets for the symbolic walk's inner operations. Excluded
// under the race detector, whose instrumentation allocates.

//go:build !race

package header

import "testing"

func TestSpaceOpsAllocBudget(t *testing.T) {
	layout := FiveTuple()
	pin, err := layout.MatchExact(layout.Wildcard(), FieldSrcIP, 0x0a000001)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := layout.MatchExact(pin, FieldDstIP, 0x0a000002)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := layout.MatchExact(layout.Wildcard(), FieldSrcIP, 0x0a000003)
	if err != nil {
		t.Fatal(err)
	}
	var sink bool
	budget := func(name string, max float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, fn); got > max {
			t.Errorf("%s: %.0f allocs per call, budget %.0f", name, got, max)
		}
	}
	budget("Overlaps", 0, func() { sink = pin.Overlaps(hit) != pin.Overlaps(miss) })
	budget("Covers", 0, func() { sink = pin.Covers(hit) != pin.Covers(miss) })
	budget("Intersect miss", 0, func() { _, sink = pin.Intersect(miss) })
	budget("Intersect hit", 1, func() { _, sink = pin.Intersect(hit) })
	// One grow of the result list plus one backing array for all pieces.
	budget("Subtract", 2, func() { sink = len(Subtract(pin, hit)) == 32 })
	if !sink {
		t.Fatal("pin \\ (pin ∧ dst) must split on each of the 32 dst_ip bits")
	}
}
