// Steady-state allocation regression tests for the pooled streaming
// pipeline. Excluded under the race detector: -race instruments every
// allocation and channel operation, which inflates MemStats counts and
// would make the budgets below meaningless.

//go:build !race

package foces_test

import (
	"context"
	"testing"

	"foces"
	"foces/internal/collector"
)

// serveSteadyStateAllocBudget is the allocations-per-window ceiling
// for System.Serve once the window pool, stamp arrays, vector free
// lists and the engines' run scratch are warm. A pooled window costs a
// fixed handful of allocations (the report's result pointers, one
// outcome block per engine run, the merged sliced outcome) whatever the
// rule or slice count; the map-shaped path it replaced paid O(rules)
// per window. fattree4/PairExact measures 5 allocs/window and
// FatTree(8)/960 7 (50 and 179 before the outcome blocks); the ceiling
// leaves room for scheduler noise while tripping on any cost that grows
// with the slices.
const serveSteadyStateAllocBudget = 16

// serveSteadyState wires a lock-step assembler+Serve pair over a
// pre-generated snapshot sequence — gen's counters under tm (nil: 400
// packets on every host pair), served by sys, built alike — and
// returns a func that replays one window per call (pushing every
// switch, then receiving the verdict).
func serveSteadyState(tb testing.TB, gen, sys *foces.System, tm foces.TrafficMatrix, windows int) (step func(), close func()) {
	switches := sortedSwitchIDs(gen)
	seq := serveTestWindowsFor(tb, gen, tm, windows, -1, -1, switches[0], 7)

	asm := collector.NewWindowAssembler(switches, collector.StreamConfig{
		RuleSpace: len(sys.FCM().Rules),
	})
	asm.SetEpoch(sys.Epoch())
	reports, err := sys.Serve(context.Background(), foces.StreamConfig{Windows: asm.Windows()})
	if err != nil {
		tb.Fatal(err)
	}
	w := 0
	step = func() {
		for _, sw := range switches {
			if err := asm.Push(collector.Update{Switch: sw, Counters: seq[w][sw]}); err != nil {
				tb.Fatalf("window %d switch %d: %v", w, sw, err)
			}
		}
		// Window 0 primes baselines; Serve emits no verdict for it.
		if w > 0 {
			sr := <-reports
			if sr.Err != nil {
				tb.Fatalf("window %d: %v", w, sr.Err)
			}
		}
		w++
	}
	return step, func() { asm.Close() }
}

// TestServeSteadyStateAllocs is the allocation regression gate on the
// streaming hot path: after warmup, one full window through
// WindowAssembler + System.Serve (dense delta accumulation, pooled
// window, pooled counter vector, full and sliced engines) must stay
// under the per-window allocation budget — on fattree4's 20 slices and
// on FatTree(8)/960's 80 alike, because the count must not grow with
// the slices.
func TestServeSteadyStateAllocs(t *testing.T) {
	const (
		warmup = 6
		runs   = 24
	)
	for _, tc := range []struct {
		name  string
		build func(*testing.T) *foces.System
		tm    func(*foces.System) foces.TrafficMatrix
	}{
		{"fattree4", func(t *testing.T) *foces.System { return newSystem(t, "fattree4", foces.PairExact) }, func(*foces.System) foces.TrafficMatrix { return nil }},
		{"fattree8-960", buildFT8, pairTraffic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen, sys := tc.build(t), tc.build(t)
			// 1 priming window + manual warmup + AllocsPerRun's untimed
			// warm-up call + the measured runs.
			step, done := serveSteadyState(t, gen, sys, tc.tm(gen), 2+warmup+runs)
			defer done()
			step() // priming
			for i := 0; i < warmup; i++ {
				step()
			}
			allocs := testing.AllocsPerRun(runs, step)
			t.Logf("steady state: %.1f allocs/window (budget %d)", allocs, serveSteadyStateAllocBudget)
			if allocs > serveSteadyStateAllocBudget {
				t.Errorf("System.Serve allocated %.1f times per window; budget is %d", allocs, serveSteadyStateAllocBudget)
			}
		})
	}
}

// BenchmarkServeSteadyState drives the same warm lock-step pipeline
// for profiling; `make pprof-stream` runs it with -memprofile to
// archive where the remaining steady-state allocations come from.
func BenchmarkServeSteadyState(b *testing.B) {
	const warmup = 6
	gen, sys := newSystem(b, "fattree4", foces.PairExact), newSystem(b, "fattree4", foces.PairExact)
	step, done := serveSteadyState(b, gen, sys, nil, 1+warmup+b.N)
	defer done()
	step() // priming
	for i := 0; i < warmup; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
