// Allocation budget for the symbolic trace. Excluded under the race
// detector, whose instrumentation allocates.

//go:build !race

package fcm

import (
	"testing"

	"foces/internal/controller"
	"foces/internal/topo"
)

// traceAllocsPerRecord is the allocation ceiling of TraceSource per
// terminated class on the FatTree(8)/960-pair tables. A record costs
// its own history, dedup key and hit space, plus — per table on its
// path — the carve's two arenas, the match and remainder lists and one
// backing array per carved piece: ~20 measured. The walk this replaced
// allocated two arrays per rule × piece tested (~5,700 per record at
// the edge switch).
const traceAllocsPerRecord = 32

func TestTraceSourceAllocBudget(t *testing.T) {
	top, err := topo.FatTree(8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := controller.New(top, layout, controller.PairExact)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ComputeRulesForPairs(firstPairs(top, 960)); err != nil {
		t.Fatal(err)
	}
	tables, err := BuildTables(top, c.Rules())
	if err != nil {
		t.Fatal(err)
	}
	src := top.Hosts()[0]
	records := 0
	allocs := testing.AllocsPerRun(5, func() {
		tr, err := TraceSource(top, layout, tables, src)
		if err != nil {
			t.Fatal(err)
		}
		records = len(tr.Records)
	})
	if records != 127 {
		t.Fatalf("host 0 traces %d classes, want 127", records)
	}
	if perRecord := allocs / float64(records); perRecord > traceAllocsPerRecord {
		t.Errorf("TraceSource: %.1f allocs per record (%.0f for %d records), budget %d", perRecord, allocs, records, traceAllocsPerRecord)
	}
}
