package telemetry

// FOCES metric sets. Each subsystem gets one constructor that
// registers its families on a registry; the instrumented packages
// (collector, core, churn, the root System) accept the resulting
// structs through SetTelemetry-style wiring so they never depend on a
// global. Every metric name created here must appear in the README
// "Observability" catalogue — `make vet-metrics` enforces that.

// Shared bucket layouts. Stage timings span microseconds (a slice
// solve on a small topology) to seconds (a cold full-FCM factor on a
// large one); widths and row counts span 1 to a few thousand rules.
var (
	// SecondsBuckets: 1µs .. ~4.2s, ×4 per bucket.
	SecondsBuckets = ExponentialBuckets(1e-6, 4, 12)
	// IndexBuckets: anomaly-index values, 0.25 .. 2048, ×2. The FOCES
	// threshold 4.5 falls inside, so the verdict boundary is visible in
	// the distribution.
	IndexBuckets = ExponentialBuckets(0.25, 2, 14)
	// WidthBuckets: fan-out widths and row counts, 1 .. 8192, ×2.
	WidthBuckets = ExponentialBuckets(1, 2, 14)
	// LagBuckets: epoch lag of reconciled windows, 1 .. 16.
	LagBuckets = LinearBuckets(1, 1, 16)
)

// CollectorMetrics instruments collector.RobustCollector.
type CollectorMetrics struct {
	PollSeconds         *Histogram
	Requests            *Counter
	Retries             *Counter
	Timeouts            *Counter
	Failures            *Counter
	Probes              *Counter
	Quarantines         *Counter
	Reinstatements      *Counter
	MissingSwitches     *Gauge
	QuarantinedSwitches *Gauge
}

// NewCollectorMetrics registers the collector family set.
func NewCollectorMetrics(r *Registry) *CollectorMetrics {
	return &CollectorMetrics{
		PollSeconds:         r.NewHistogram("foces_collector_poll_seconds", "Wall time of one RobustCollector.PollSnapshots round over the due switches.", SecondsBuckets),
		Requests:            r.NewCounter("foces_collector_requests_total", "Flow-stats requests issued, including retries."),
		Retries:             r.NewCounter("foces_collector_retries_total", "Flow-stats requests that were retries of a failed attempt."),
		Timeouts:            r.NewCounter("foces_collector_timeouts_total", "Flow-stats attempts that exceeded their per-request deadline."),
		Failures:            r.NewCounter("foces_collector_failures_total", "Switch polls that exhausted every attempt in a round."),
		Probes:              r.NewCounter("foces_collector_probes_total", "Echo probes sent to quarantined switches."),
		Quarantines:         r.NewCounter("foces_collector_quarantines_total", "Healthy/degraded to quarantined transitions."),
		Reinstatements:      r.NewCounter("foces_collector_reinstatements_total", "Quarantined switches reinstated after a successful probe."),
		MissingSwitches:     r.NewGauge("foces_collector_missing_switches", "Switches excluded from the most recent poll window."),
		QuarantinedSwitches: r.NewGauge("foces_collector_quarantined_switches", "Switches currently quarantined."),
	}
}

// DetectionMetrics instruments core.Detector and core.SlicedDetector.
// Engine-labeled families are partitioned by "full" (Algorithm 1 over
// the whole FCM), "sliced" (Algorithm 2 aggregate) and "slice" (one
// per-switch sub-engine inside the fan-out); detectors resolve their
// labeled children once at SetTelemetry time so the hot path touches
// only atomics.
type DetectionMetrics struct {
	SolveSeconds    *HistogramVec // engine
	ResidualSeconds *HistogramVec // engine
	DetectSeconds   *HistogramVec // engine
	GatherSeconds   *Histogram
	FanoutWidth     *Histogram
	AnomalyIndex    *HistogramVec // engine
	Verdicts        *CounterVec   // engine, verdict
}

// NewDetectionMetrics registers the detector family set.
func NewDetectionMetrics(r *Registry) *DetectionMetrics {
	return &DetectionMetrics{
		SolveSeconds:    r.NewHistogramVec("foces_detector_solve_seconds", "Least-squares solve stage per detection.", SecondsBuckets, "engine"),
		ResidualSeconds: r.NewHistogramVec("foces_detector_residual_seconds", "Residual and anomaly-index stage per detection.", SecondsBuckets, "engine"),
		DetectSeconds:   r.NewHistogramVec("foces_detector_detect_seconds", "End-to-end detection wall time.", SecondsBuckets, "engine"),
		GatherSeconds:   r.NewHistogram("foces_detector_gather_seconds", "Per-slice counter-vector gather stage of sliced detection.", SecondsBuckets),
		FanoutWidth:     r.NewHistogram("foces_detector_fanout_width", "Number of slice engines dispatched per sliced detection.", WidthBuckets),
		AnomalyIndex:    r.NewHistogramVec("foces_detector_anomaly_index", "Distribution of computed anomaly-index values.", IndexBuckets, "engine"),
		Verdicts:        r.NewCounterVec("foces_detector_verdicts_total", "Detection verdicts by engine and outcome.", "engine", "verdict"),
	}
}

// ChurnMetrics instruments churn.Manager.
type ChurnMetrics struct {
	ApplySeconds       *Histogram
	FullRebuildSeconds *Histogram
	AffectedRows       *Histogram
	RetracedSources    *Histogram
	Updates            *Counter
	Events             *Counter
	Slices             *CounterVec // disposition: reused | updated | refactored
	Epoch              *Gauge
	PrepareSeconds     *HistogramVec // stage: trace | assemble | slice_build | gram | factor | ...
}

// NewChurnMetrics registers the churn family set.
func NewChurnMetrics(r *Registry) *ChurnMetrics {
	return &ChurnMetrics{
		ApplySeconds:       r.NewHistogram("foces_churn_apply_seconds", "Incremental baseline update per Apply batch.", SecondsBuckets),
		FullRebuildSeconds: r.NewHistogram("foces_churn_full_rebuild_seconds", "Cold rebuild of the lazy full-FCM engine.", SecondsBuckets),
		AffectedRows:       r.NewHistogram("foces_churn_affected_rows", "Rule rows invalidated by one Apply batch.", WidthBuckets),
		RetracedSources:    r.NewHistogram("foces_churn_retraced_sources", "Traffic sources re-traced by one Apply batch.", WidthBuckets),
		Updates:            r.NewCounter("foces_churn_updates_total", "Apply batches folded into the baseline."),
		Events:             r.NewCounter("foces_churn_events_total", "Individual rule add/remove/modify events applied."),
		Slices:             r.NewCounterVec("foces_churn_slices_total", "Per-switch slice engines by rebuild disposition.", "disposition"),
		Epoch:              r.NewGauge("foces_churn_epoch", "Current baseline epoch."),
		PrepareSeconds:     r.NewHistogramVec("foces_prepare_stage_seconds", "Baseline preparation wall time by stage: per applied update trace, assemble, slice_build; per lazy full-engine rebuild gram, factor, ordering, symbolic, numeric of whichever Gram was factored: HᵀH, or HHᵀ for a wide H.", SecondsBuckets, "stage"),
	}
}

// StreamMetrics instruments the streaming ingestion path: the
// collector.WindowAssembler's bounded queues and window assembly, the
// adaptive sampler's masking, and the Serve loop's end-to-end
// ingest-to-verdict latency.
type StreamMetrics struct {
	Pushes               *Counter
	Updates              *Counter
	Coalesced            *Counter
	DroppedUpdates       *Counter
	DroppedWindows       *Counter
	Windows              *Counter
	Resets               *Counter
	DuplicateRules       *Counter
	QueueDepth           *Gauge
	BackedOffSwitches    *Gauge
	WindowLagSeconds     *Histogram
	DetectLatencySeconds *Histogram
}

// NewStreamMetrics registers the streaming family set.
func NewStreamMetrics(r *Registry) *StreamMetrics {
	return &StreamMetrics{
		Pushes:               r.NewCounter("foces_stream_pushes_total", "Counter snapshots pushed into the window assembler."),
		Updates:              r.NewCounter("foces_stream_updates_total", "Individual counter entries ingested across pushes."),
		Coalesced:            r.NewCounter("foces_stream_coalesced_total", "Snapshots coalesced into a newer one at queue capacity."),
		DroppedUpdates:       r.NewCounter("foces_stream_dropped_updates_total", "Queued snapshots discarded after a collection gap (Forget)."),
		DroppedWindows:       r.NewCounter("foces_stream_dropped_windows_total", "Completed windows evicted because the consumer fell behind."),
		Windows:              r.NewCounter("foces_stream_windows_total", "Detection windows completed by the assembler."),
		Resets:               r.NewCounter("foces_collector_resets_total", "Counter resets (switch restarts) found while assembling windows."),
		DuplicateRules:       r.NewCounter("foces_collector_duplicate_rules_total", "Rule IDs reported by more than one switch in one window (counter shadowing)."),
		QueueDepth:           r.NewGauge("foces_stream_queue_depth", "Counter snapshots currently queued across all switches."),
		BackedOffSwitches:    r.NewGauge("foces_stream_backed_off_switches", "Switches the adaptive sampler currently samples less than every window."),
		WindowLagSeconds:     r.NewHistogram("foces_stream_window_lag_seconds", "First-push-to-completion lag per assembled window.", SecondsBuckets),
		DetectLatencySeconds: r.NewHistogram("foces_stream_detect_latency_seconds", "End-to-end ingest-to-verdict latency per streamed window.", SecondsBuckets),
	}
}

// SystemMetrics instruments System.Run.
type SystemMetrics struct {
	RunSeconds *HistogramVec // path: clean | missing | reconciled
	Runs       *CounterVec   // path, verdict
	EpochLag   *Histogram
	MaskedRows *Histogram
}

// NewSystemMetrics registers the system family set.
func NewSystemMetrics(r *Registry) *SystemMetrics {
	return &SystemMetrics{
		RunSeconds: r.NewHistogramVec("foces_system_run_seconds", "End-to-end System.Run wall time by dispatch path.", SecondsBuckets, "path"),
		Runs:       r.NewCounterVec("foces_system_runs_total", "System.Run outcomes by dispatch path and verdict.", "path", "verdict"),
		EpochLag:   r.NewHistogram("foces_system_epoch_lag", "Epochs between a reconciled observation window and the current baseline.", LagBuckets),
		MaskedRows: r.NewHistogram("foces_system_masked_rows", "Rule rows masked per reconciled detection.", WidthBuckets),
	}
}

// ProbeMetrics instruments active-probe localization
// (internal/probe).
type ProbeMetrics struct {
	Probes                *CounterVec // outcome: clean | failed | error
	Localizations         *CounterVec // outcome: localized | unresolved
	ProbesPerLocalization *Histogram
	LocalizeSeconds       *Histogram
	SuspectRules          *Histogram
	Confidence            *Histogram
}

// NewProbeMetrics registers the active-probe family set.
func NewProbeMetrics(r *Registry) *ProbeMetrics {
	return &ProbeMetrics{
		Probes:                r.NewCounterVec("foces_probe_probes_total", "Active probes injected, by per-probe outcome.", "outcome"),
		Localizations:         r.NewCounterVec("foces_probe_localizations_total", "Localization runs, by whether a culprit reached the confidence bar.", "outcome"),
		ProbesPerLocalization: r.NewHistogram("foces_probe_probes_per_localization", "Probes spent per localization run.", LagBuckets),
		LocalizeSeconds:       r.NewHistogram("foces_probe_localize_seconds", "End-to-end localization wall time per anomalous window.", SecondsBuckets),
		SuspectRules:          r.NewHistogram("foces_probe_suspect_rules", "Suspect rule-set size a localization started from.", WidthBuckets),
		Confidence:            r.NewHistogram("foces_probe_confidence", "Top-culprit confidence per localization that accused anyone.", LinearBuckets(0.1, 0.1, 10)),
	}
}

// RuntimeMetrics exports the Go runtime's GC and heap pressure — the
// denominator of every latency tail the other families measure. The
// gauges are refreshed by a RuntimeSampler (typically on scrape), not
// continuously, so they cost nothing between scrapes.
type RuntimeMetrics struct {
	HeapLiveBytes       *Gauge
	GCPauseSecondsTotal *Gauge
	GCCyclesTotal       *Gauge
	AllocsPerSecond     *Gauge
}

// NewRuntimeMetrics registers the runtime family set.
func NewRuntimeMetrics(r *Registry) *RuntimeMetrics {
	return &RuntimeMetrics{
		HeapLiveBytes:       r.NewGauge("foces_runtime_heap_live_bytes", "Bytes of live heap objects at the last runtime sample."),
		GCPauseSecondsTotal: r.NewGauge("foces_runtime_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time since process start."),
		GCCyclesTotal:       r.NewGauge("foces_runtime_gc_cycles_total", "Completed GC cycles since process start."),
		AllocsPerSecond:     r.NewGauge("foces_runtime_allocs_per_second", "Heap allocations per second between the last two runtime samples."),
	}
}

// ClusterMetrics instruments the coordinator of a sharded multi-node
// detection cluster (internal/cluster).
type ClusterMetrics struct {
	Nodes          *Gauge
	Shards         *Gauge
	Degraded       *Gauge
	WindowSeconds  *Histogram
	BaselineSyncs  *CounterVec // kind: snapshot | delta
	RequeuedShards *Counter
	Evictions      *Counter
}

// NewClusterMetrics registers the cluster family set.
func NewClusterMetrics(r *Registry) *ClusterMetrics {
	return &ClusterMetrics{
		Nodes:          r.NewGauge("foces_cluster_nodes", "Live detector nodes connected to the coordinator."),
		Shards:         r.NewGauge("foces_cluster_shards", "Per-switch slice shards assigned across live nodes."),
		Degraded:       r.NewGauge("foces_cluster_degraded", "1 while live detector capacity is below the configured peer set."),
		WindowSeconds:  r.NewHistogram("foces_cluster_window_seconds", "Distributed sliced-detection wall time per window.", SecondsBuckets),
		BaselineSyncs:  r.NewCounterVec("foces_cluster_baseline_syncs_total", "Baseline shipments to detector nodes: full snapshots vs incremental rank-one deltas.", "kind"),
		RequeuedShards: r.NewCounter("foces_cluster_requeued_shards_total", "In-flight shards re-dispatched to surviving nodes after an eviction."),
		Evictions:      r.NewCounter("foces_cluster_evictions_total", "Detector nodes evicted on heartbeat timeout or transport failure."),
	}
}
