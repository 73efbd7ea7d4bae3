package churn

import (
	"testing"

	"foces/internal/controller"
	"foces/internal/telemetry"
	"foces/internal/topo"
)

// TestApplyStageTelemetry checks the per-update split of
// foces_prepare_stage_seconds: the trace, assemble and slice_build
// children exist from wiring time on (a scrape before the first update
// already shows them, at zero), every Apply observes each exactly once,
// and a detached manager observes nothing.
func TestApplyStageTelemetry(t *testing.T) {
	topol, err := topo.Linear(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := seedController(t, topol)
	m := seedManager(t, topol, ctrl, Config{})
	reg := telemetry.New()
	tel := telemetry.NewChurnMetrics(reg)
	m.SetTelemetry(telemetry.NewDetectionMetrics(reg), tel)

	stageCounts := func() map[string]uint64 {
		counts := make(map[string]uint64)
		for _, fam := range reg.Gather() {
			if fam.Name != "foces_prepare_stage_seconds" {
				continue
			}
			for _, s := range fam.Samples {
				counts[s.Labels[0]] = s.Count
			}
		}
		return counts
	}
	requireCounts := func(when string, want uint64) {
		t.Helper()
		counts := stageCounts()
		for _, stage := range []string{"trace", "assemble", "slice_build"} {
			got, ok := counts[stage]
			if !ok || got != want {
				t.Fatalf("%s: stage %q observed %d times (present: %v), want %d", when, stage, got, ok, want)
			}
		}
	}
	bump := func() {
		t.Helper()
		victim := ctrl.Rules()[0]
		r, err := ctrl.ModifyRule(victim.ID, victim.Priority+1, victim.Match, victim.Action)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Apply([]controller.RuleChange{{Op: controller.RuleModified, Rule: r, Prev: victim}}); err != nil {
			t.Fatal(err)
		}
	}
	requireCounts("after wiring", 0)
	bump()
	requireCounts("after one update", 1)
	bump()
	requireCounts("after two updates", 2)
	m.SetTelemetry(nil, nil)
	bump()
	requireCounts("after a detached update", 2)
}
