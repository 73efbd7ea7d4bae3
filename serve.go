package foces

import (
	"context"
	"fmt"
	"time"

	"foces/internal/collector"
	"foces/internal/telemetry"
)

// This file is the streaming detection entry point. The historical
// shape of a FOCES monitor was a caller-driven loop — for { Poll; Run }
// — which couples detection cadence to collection latency and makes
// every layer assume one full poll per period. System.Serve inverts
// it: a collector.WindowAssembler turns pushed counter snapshots into
// completed windows on its own clock, and Serve consumes those windows
// continuously, grouping batchable ones through RunBatch and emitting
// verdicts on a channel. Health states and churn epochs flow through
// unchanged: a streaming window straddling an ApplyUpdate carries the
// same epoch/straddle metadata a polled window would, so it is masked
// exactly the same way.

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
	// BatchMax caps how many pending windows are grouped into one
	// RunBatch call when the consumer has fallen behind the assembler;
	// batched windows share one multi-RHS full-engine solve. Zero
	// selects 8, one disables batching.
	BatchMax int
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
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.BatchMax <= 0 {
		c.BatchMax = 8
	}
	if c.Buffer <= 0 {
		c.Buffer = 16
	}
	return c
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
	// Batched is how many windows shared this report's RunBatch call
	// (1 = ran alone).
	Batched int
	// Err is the window's detection error, if any; Serve keeps running
	// after per-window errors.
	Err error
}

// Serve runs continuous streaming detection: it consumes completed
// windows from cfg.Windows, converts each to an Observation (missing
// switches and, for straddled windows, rows changed since their oldest
// baseline epoch masked — identical to the polled path), groups
// pending windows through RunBatch, and emits one StreamReport per
// window, in window order, on the returned channel.
//
// Serve returns immediately; the loop runs until ctx is cancelled or
// cfg.Windows is closed, then closes the report channel. Windows with
// no usable counters at all (every switch missing — e.g. the priming
// window) are skipped, matching a polled monitor that primes before
// its first period. Per-window detection errors are reported on the
// channel, not fatal.
func (s *System) Serve(ctx context.Context, cfg StreamConfig) (<-chan StreamReport, error) {
	if cfg.Windows == nil {
		return nil, fmt.Errorf("foces: StreamConfig.Windows is required (use WindowAssembler.Windows)")
	}
	cfg = cfg.withDefaults()
	out := make(chan StreamReport, cfg.Buffer)
	go func() {
		defer close(out)
		// Batch and observation scratch live across iterations so the
		// steady-state loop reuses their backing arrays.
		var (
			batch []StreamWindow
			obs   []Observation
		)
		for {
			var first StreamWindow
			select {
			case <-ctx.Done():
				return
			case w, ok := <-cfg.Windows:
				if !ok {
					return
				}
				first = w
			}
			batch = append(batch[:0], first)
			for len(batch) < cfg.BatchMax {
				select {
				case w, ok := <-cfg.Windows:
					if !ok {
						s.serveBatch(ctx, cfg, batch, &obs, out)
						return
					}
					batch = append(batch, w)
				default:
					goto drained
				}
			}
		drained:
			if !s.serveBatch(ctx, cfg, batch, &obs, out) {
				return
			}
		}
	}()
	return out, nil
}

// serveBatch detects one group of pending windows, emits their reports
// in window order, and releases every window's pooled storage back to
// the assembler. It returns false when ctx cancellation interrupted
// emission. The observation scratch at *scratch is reused across calls.
func (s *System) serveBatch(ctx context.Context, cfg StreamConfig, batch []StreamWindow, scratch *[]Observation, out chan<- StreamReport) bool {
	// Windows with zero usable rows (all switches missing, e.g. the
	// priming window) cannot form an equation system; skip them.
	kept := batch[:0]
	for i := range batch {
		if len(batch[i].Deltas) > 0 {
			kept = append(kept, batch[i])
		} else {
			batch[i].Release()
		}
	}
	if len(kept) == 0 {
		return true
	}
	obs := (*scratch)[:0]
	for i := range kept {
		obs = append(obs, windowObservation(kept[i], cfg))
	}
	*scratch = obs
	reports, err := s.RunBatch(obs)
	if err != nil {
		// A batch-level error names one window; fall back to per-window
		// Runs so one bad window cannot take down its neighbours.
		return s.serveSingly(ctx, cfg, kept, obs, out)
	}
	for i := range kept {
		ok := s.emitReport(ctx, cfg, kept[i], reports[i], len(kept), nil, out)
		kept[i].Release()
		if !ok {
			return false
		}
	}
	return true
}

// serveSingly is serveBatch's degraded path: each window runs alone so
// errors stay per-window.
func (s *System) serveSingly(ctx context.Context, cfg StreamConfig, kept []StreamWindow, obs []Observation, out chan<- StreamReport) bool {
	for i := range kept {
		rep, err := s.Run(obs[i])
		ok := s.emitReport(ctx, cfg, kept[i], rep, 1, err, out)
		kept[i].Release()
		if !ok {
			return false
		}
	}
	return true
}

// emitReport finalizes one window's StreamReport — latency accounting,
// sampler feedback, telemetry — and sends it. Returns false on ctx
// cancellation.
func (s *System) emitReport(ctx context.Context, cfg StreamConfig, w StreamWindow, rep Report, batched int, err error, out chan<- StreamReport) bool {
	// Report.Missing echoes the observation's slice, which aliases the
	// window's pooled storage; the report outlives the window's Release,
	// so detach it.
	if len(rep.Missing) > 0 {
		rep.Missing = append([]SwitchID(nil), rep.Missing...)
	}
	sr := StreamReport{Report: rep, Window: w.Seq, Batched: batched, Err: err}
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

// windowObservation converts one completed streaming window into the
// Observation a polled monitor would have built from the equivalent
// PollResult: a straddling window is dated by its oldest baseline epoch
// so Run masks every rule changed since, alongside the rows of any
// switch that went missing in the same window.
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
