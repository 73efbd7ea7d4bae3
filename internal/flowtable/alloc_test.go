// Allocation budget for the symbolic table walk. Excluded under the
// race detector, whose instrumentation allocates.

//go:build !race

package flowtable

import (
	"testing"

	"foces/internal/header"
)

// TestSymbolicMatchesAllocBudget pins the candidate-first property: a
// rule disjoint from the injected space costs the walk one overlap test
// and no memory, however many of them the table holds.
func TestSymbolicMatchesAllocBudget(t *testing.T) {
	pair := func(src, dst uint64) header.Space {
		m, err := layout.MatchExact(layout.Wildcard(), header.FieldSrcIP, src)
		if err != nil {
			t.Fatal(err)
		}
		if m, err = layout.MatchExact(m, header.FieldDstIP, dst); err != nil {
			t.Fatal(err)
		}
		return m
	}
	tbl := NewTable(1)
	for id := 0; id < 500; id++ {
		// Source 7 owns four of the 500 pair-exact rules.
		src := uint64(100 + id)
		if id%125 == 0 {
			src = 7
		}
		r := Rule{ID: id, Priority: 100, Match: pair(src, uint64(1000+id)), Action: Action{Type: ActionOutput, Port: 1}}
		if err := tbl.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	pin, err := layout.MatchExact(layout.Wildcard(), header.FieldSrcIP, 7)
	if err != nil {
		t.Fatal(err)
	}
	var matches int
	allocs := testing.AllocsPerRun(50, func() {
		out, _ := tbl.SymbolicMatchesWithRemainder(pin)
		matches = len(out)
	})
	if matches != 4 {
		t.Fatalf("%d matches, want source 7's four rules", matches)
	}
	// Per hit: the hit space, the carve's backing array, arena growth;
	// per call: the two arenas, the match list, the remainder list.
	if allocs > 24 {
		t.Errorf("%.0f allocs for 4 candidates among 500 rules, budget 24 (20 measured)", allocs)
	}
}
