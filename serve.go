package foces

import (
	"context"
	"fmt"
	"time"

	"foces/internal/collector"
	"foces/internal/telemetry"
)

// This file is the detection entry point for live counters. There is
// one window producer: a pump fetches cumulative snapshots
// (collector.RobustCollector.PollSnapshots), a collector.WindowAssembler
// turns them into completed windows on its own clock, and Serve
// consumes those windows continuously, running each through Run and
// emitting verdicts on a channel. Health states and churn epochs flow
// through unchanged: a window straddling an ApplyUpdate carries its
// baseline epoch, so Run masks the rows changed since.

// Streaming types re-exported from internal/collector. The assembler
// and sampler live with the collection plane; Serve only consumes
// completed windows.
type (
	// WindowAssembler turns pushed cumulative counter snapshots into
	// completed detection windows.
	WindowAssembler = collector.WindowAssembler
	// AssemblerConfig tunes the window assembler's bounded queues.
	AssemblerConfig = collector.StreamConfig
	// StreamUpdate is one pushed cumulative counter snapshot.
	StreamUpdate = collector.Update
	// StreamWindow is one completed streaming detection window.
	StreamWindow = collector.Window
	// StreamStats snapshots the assembler's ingestion counters.
	StreamStats = collector.StreamStats
	// AdaptiveSampler tunes per-switch sampling from detection feedback.
	AdaptiveSampler = collector.AdaptiveSampler
	// SamplerConfig tunes the adaptive sampler.
	SamplerConfig = collector.SamplerConfig
	// SamplerStats snapshots the sampler's state.
	SamplerStats = collector.SamplerStats
	// ProbeSample is a backed-off switch's multi-window counter delta.
	ProbeSample = collector.ProbeSample
	// StreamTelemetry is the streaming ingestion metric family set.
	StreamTelemetry = telemetry.StreamMetrics
)

// NewWindowAssembler builds a streaming window assembler over the
// given switch set.
func NewWindowAssembler(switches []SwitchID, cfg AssemblerConfig) *WindowAssembler {
	return collector.NewWindowAssembler(switches, cfg)
}

// NewAdaptiveSampler builds an adaptive per-switch sampler; wire it
// into both AssemblerConfig.Sampler and StreamConfig.Sampler to close
// the detection-to-collection feedback loop.
func NewAdaptiveSampler(switches []SwitchID, cfg SamplerConfig) *AdaptiveSampler {
	return collector.NewAdaptiveSampler(switches, cfg)
}

// NewStreamTelemetry registers the streaming ingestion families
// (queue depth, drops, window lag, detection latency) on reg. Wire the
// result into WindowAssembler.SetTelemetry and StreamConfig.Telemetry.
func NewStreamTelemetry(reg *TelemetryRegistry) *StreamTelemetry {
	return telemetry.NewStreamMetrics(reg)
}

// StreamConfig configures System.Serve.
type StreamConfig struct {
	// Windows is the completed-window stream, normally
	// WindowAssembler.Windows(). Required.
	Windows <-chan StreamWindow
	// Buffer sizes the emitted report channel; zero selects 16.
	Buffer int
	// Mode selects the engines per window (default ModeAuto).
	Mode Mode
	// Options overrides the system's detection options per window.
	Options DetectOptions
	// Localize, when set, opts every streamed window into active-probe
	// localization: anomalous verdicts carry a ranked culprit report in
	// Report.Localization. Probing runs inline on the serve goroutine,
	// so budget its deadlines against the window period.
	Localize *LocalizeConfig
	// Sampler, when set, receives every window's contribution totals,
	// probe samples and verdict — the feedback edge that backs off
	// stable switches and tightens suspects.
	Sampler *AdaptiveSampler
	// Telemetry, when set, records end-to-end ingest-to-verdict
	// latency per window.
	Telemetry *StreamTelemetry
	// Sliced runs every window's Algorithm 2 stage (see RunWith); nil
	// selects the system's own sliced engine. A cluster coordinator
	// goes here to shard the stage across detector nodes.
	Sliced SlicedRunner
}

// StreamReport is one streamed window's detection outcome.
type StreamReport struct {
	// Report is the detection outcome; zero-valued when Err is set.
	Report Report
	// Window is the assembler's window sequence number.
	Window uint64
	// Latency is first-push-to-verdict wall time (zero when the window
	// carried no push timestamp).
	Latency time.Duration
	// Resets lists the window's switches whose counters restarted
	// (their rows are masked like Report.Missing's, which includes them).
	Resets []SwitchID
	// Straddled counts the window's switches whose delta spans a rule
	// update — why Report.MaskedRows is set.
	Straddled int
	// Batched is always 1: Serve detects every window alone.
	//
	// Deprecated: the field survives only because the frozen benchmark
	// (bench/ft8.go) reads it; the next benchmark change drops it.
	Batched int
	// Err is the window's detection error, if any; Serve keeps running
	// after per-window errors.
	Err error
}

// Serve runs continuous streaming detection: it consumes completed
// windows from cfg.Windows, converts each to an Observation (missing
// switches and, for straddled windows, rows changed since their oldest
// baseline epoch masked), detects it with RunWith(obs, cfg.Sliced),
// and emits one StreamReport per window, in window order, on
// the returned channel.
//
// Serve returns immediately; the loop runs until ctx is cancelled or
// cfg.Windows is closed, then closes the report channel. Windows with
// no usable counters at all (every switch missing — e.g. the priming
// window) are skipped. Per-window detection errors are reported on the
// channel, not fatal.
func (s *System) Serve(ctx context.Context, cfg StreamConfig) (<-chan StreamReport, error) {
	if cfg.Windows == nil {
		return nil, fmt.Errorf("foces: StreamConfig.Windows is required (use WindowAssembler.Windows)")
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 16
	}
	out := make(chan StreamReport, cfg.Buffer)
	go func() {
		defer close(out)
		for {
			var w StreamWindow
			select {
			case <-ctx.Done():
				return
			case next, ok := <-cfg.Windows:
				if !ok {
					return
				}
				w = next
			}
			if len(w.Deltas) == 0 {
				w.Release()
				continue
			}
			rep, err := s.RunWith(windowObservation(w, cfg), cfg.Sliced)
			ok := s.emitReport(ctx, cfg, w, rep, err, out)
			w.Release()
			if !ok {
				return
			}
		}
	}()
	return out, nil
}

// emitReport finalizes one window's StreamReport — latency accounting,
// sampler feedback, telemetry — and sends it. Returns false on ctx
// cancellation.
func (s *System) emitReport(ctx context.Context, cfg StreamConfig, w StreamWindow, rep Report, err error, out chan<- StreamReport) bool {
	// Report.Missing echoes the observation's slice, which aliases the
	// window's pooled storage; the report outlives the window's Release,
	// so detach it (and the resets, likewise pooled).
	if len(rep.Missing) > 0 {
		rep.Missing = append([]SwitchID(nil), rep.Missing...)
	}
	sr := StreamReport{Report: rep, Window: w.Seq, Straddled: len(w.Straddled), Batched: 1, Err: err}
	if len(w.Resets) > 0 {
		sr.Resets = append([]SwitchID(nil), w.Resets...)
	}
	if !w.Opened.IsZero() {
		sr.Latency = time.Since(w.Opened)
	}
	if err == nil {
		if cfg.Sampler != nil {
			cfg.Sampler.Observe(w.Contributed, w.Probes, rep.Anomalous, rep.Suspects)
		}
		if cfg.Telemetry != nil && sr.Latency > 0 {
			cfg.Telemetry.DetectLatencySeconds.Observe(sr.Latency.Seconds())
		}
	}
	select {
	case <-ctx.Done():
		return false
	case out <- sr:
		return true
	}
}

// windowObservation converts one completed streaming window into its
// Observation: a straddling window is dated by its oldest baseline
// epoch so Run masks every rule changed since, alongside the rows of
// any switch that went missing in the same window.
func windowObservation(w StreamWindow, cfg StreamConfig) Observation {
	epoch := w.Epoch
	for _, from := range w.Straddled {
		if from < epoch {
			epoch = from
		}
	}
	return Observation{
		Counters: w.Deltas,
		RunOptions: RunOptions{
			Missing:  w.Missing,
			Epoch:    epoch,
			Mode:     cfg.Mode,
			Options:  cfg.Options,
			Localize: cfg.Localize,
		},
	}
}
