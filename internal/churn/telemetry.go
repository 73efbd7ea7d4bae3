package churn

import (
	"foces/internal/core"
	"foces/internal/telemetry"
)

// SetTelemetry wires the manager to a churn metric set and, via det, to
// the detection metric set its engines record into. Both may be nil to
// detach. The wiring survives epochs: every engine generation built by
// a later Apply (and every lazily rebuilt full engine) inherits det
// automatically.
//
// Call before detection traffic starts: the current engine generation
// is re-wired in place, which must not race a Detect in flight.
func (m *Manager) SetTelemetry(det *telemetry.DetectionMetrics, ch *telemetry.ChurnMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.det = det
	m.tel = ch
	m.stages = applyStages{}
	if ch != nil {
		m.stages = applyStages{
			trace:      ch.PrepareSeconds.With("trace"),
			assemble:   ch.PrepareSeconds.With("assemble"),
			sliceBuild: ch.PrepareSeconds.With("slice_build"),
		}
	}
	if m.sliced != nil {
		m.sliced.SetTelemetry(det)
	}
	if m.fullOK && m.full != nil {
		if det == nil {
			m.full.SetTelemetry(nil, "")
		} else {
			m.full.SetTelemetry(det, core.EngineFull)
		}
	}
	if ch != nil {
		ch.Epoch.Set(float64(m.epoch))
	}
}
