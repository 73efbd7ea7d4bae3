package foces

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"foces/internal/core"
	"foces/internal/telemetry"
)

// This file is the unified detection entry point. Describe one
// observation window — counters, which switches failed to report, which
// baseline epoch the window was snapshotted under — and System.Run
// turns the degraded conditions into one row mask (rows of the missing
// switches ∪ rows changed since the window's epoch), asks the prepared
// engines the paper's question on the rows that are left, and returns a
// single Report. A clean window is the empty mask; there is no other
// path, and System.Serve runs every streamed window through Run too.
// Detect, DetectSliced and DetectReconciled survive as thin
// deprecated wrappers over Run.

// Mode selects which detection engines a Run executes.
type Mode int

const (
	// ModeAuto runs both the full-FCM engine (Algorithm 1) and the
	// per-switch sliced engine (Algorithm 2) — the monitoring default:
	// a network-wide verdict plus localization.
	ModeAuto Mode = iota
	// ModeFull runs only Algorithm 1.
	ModeFull
	// ModeSliced runs only Algorithm 2.
	ModeSliced
)

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeFull:
		return "full"
	case ModeSliced:
		return "sliced"
	}
	return "mode-" + fmt.Sprint(int(m))
}

// MarshalJSON emits the mode's name, keeping serialized reports
// self-describing instead of leaking iota ordering.
func (m Mode) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// Report.Path values: a label for where a window's row mask came from.
// Every window runs the same engine calls; the label only says why
// rows were left out.
const (
	// PathClean is the steady state: every switch reported and the
	// window matches the current baseline epoch, so nothing is masked.
	PathClean = "clean"
	// PathMissing marks a degraded window: one or more switches did not
	// report, so their rule rows are masked. The window may be lagged
	// as well (Report.EpochLag > 0); missing takes the label.
	PathMissing = "missing"
	// PathReconciled marks a lagged window with every switch reporting:
	// it straddles one or more rule updates, so rows changed since its
	// baseline epoch are masked.
	PathReconciled = "reconciled"
)

// RunOptions is everything that shapes how a window is detected and
// diagnosed, separate from the measurements themselves. It is the one
// option surface behind Run: each deprecated Detect* wrapper is a
// one-line translation of its legacy signature into a RunOptions
// value, and new knobs (like Localize) land here once instead of
// fanning out across method signatures.
type RunOptions struct {
	// Missing lists switches whose counters are unusable this window
	// (unreachable, quarantined, reset). Their rule rows are masked out
	// of the equation system; nil and empty both mean every switch
	// reported.
	Missing []SwitchID
	// Epoch is the baseline epoch the window's counters were
	// snapshotted under (PollResult straddle reporting). When it trails
	// the system's current epoch, Run masks the rule rows changed in
	// between instead of reading mixed-generation counters as an
	// anomaly — whether or not switches are missing too. Callers
	// polling without churn awareness should set it to System.Epoch().
	Epoch uint64
	// Mode selects the engines to run; the zero value (ModeAuto) runs
	// both.
	Mode Mode
	// Options overrides the system's detection options for this window,
	// masked or not. The zero value inherits the options fixed at
	// construction.
	Options DetectOptions
	// Localize opts the window into active-probe localization: when the
	// verdict is anomalous, Run probes the suspect set and attaches a
	// ranked culprit report to Report.Localization. Nil (the default)
	// skips probing entirely and leaves the detection path untouched.
	Localize *LocalizeConfig
}

// Observation describes one collection window for System.Run: the
// measurements (exactly one of Counters and Vector) plus the embedded
// RunOptions describing how to detect and diagnose them.
//
// Counters is a rule-ID keyed snapshot (collector output), Vector a
// pre-built dense vector indexed by rule ID (simulation output); either
// works on every window. Entries of masked rows are never read.
type Observation struct {
	// Counters is the window's per-rule counter snapshot (deltas for a
	// live collector), keyed by global rule ID.
	Counters map[int]uint64
	// Vector is the window's dense counter vector, an alternative to
	// Counters for callers that already hold Y'.
	Vector []float64
	// RunOptions shapes detection and diagnosis for this window; its
	// fields promote, so obs.Missing, obs.Epoch, obs.Mode, obs.Options
	// and obs.Localize read as before the options were unified.
	RunOptions
}

// RunTimings carries a Run's per-stage wall times.
type RunTimings struct {
	// Full is the Algorithm 1 stage (zero when not run).
	Full time.Duration `json:"fullNs"`
	// Sliced is the Algorithm 2 stage (zero when not run).
	Sliced time.Duration `json:"slicedNs"`
	// Localize is the active-probe localization stage (zero when the
	// observation carried no LocalizeConfig or the verdict was clean).
	Localize time.Duration `json:"localizeNs"`
	// Total is the end-to-end Run wall time.
	Total time.Duration `json:"totalNs"`
}

// ReportSchema identifies the Report wire format. Report.MarshalJSON
// stamps it into every serialized report, so consumers of the /status
// recent ring, StreamReport payloads and archived experiment results
// can dispatch on the version instead of sniffing fields. Bump it when
// a field changes meaning or shape; adding optional fields is
// compatible and does not bump.
const ReportSchema = "foces/report/v1"

// Report is the single outcome of a System.Run. It serializes from
// exactly one code path (MarshalJSON, which stamps ReportSchema), so
// the /status recent ring, StreamReport and archived results all emit
// the same bytes for the same report.
type Report struct {
	// Mode echoes the observation's engine selection.
	Mode Mode `json:"mode"`
	// Path labels where the window's row mask came from: PathMissing if
	// any switch was missing, else PathReconciled if the window lagged
	// the baseline, else PathClean.
	Path string `json:"path"`
	// Epoch is the baseline epoch detection ran against.
	Epoch uint64 `json:"epoch"`
	// EpochLag is how many epochs the window trailed the baseline (zero
	// when it was current; non-zero on PathReconciled and on a
	// PathMissing window that was lagged as well).
	EpochLag uint64 `json:"epochLag,omitempty"`

	// Full is the Algorithm 1 result over the global row space, masked
	// entries reading 0 in Delta (nil when ModeSliced).
	Full *Result `json:"-"`
	// Partial is never set.
	//
	// Deprecated: missing-switch windows report through Full like every
	// other window. The field survives, pointer-typed with a Result
	// inside, only because the frozen benchmark (bench/ft8.go) compiles
	// against rep.Partial.Result; the next benchmark PR drops it.
	Partial *PartialResult `json:"-"`
	// Sliced is the per-switch localization outcome (nil when
	// ModeFull). Slices whose switch had every own rule masked are
	// absent.
	Sliced *SlicedOutcome `json:"-"`
	// MaskedRows lists the rule rows masked for churn (changed since
	// the window's epoch). Rows masked because their switch is in
	// Missing are not repeated here.
	MaskedRows []int `json:"maskedRows,omitempty"`
	// Missing echoes the observation's missing switches.
	Missing []SwitchID `json:"missing,omitempty"`

	// Anomalous is the combined verdict of every engine that ran.
	Anomalous bool `json:"anomalous"`
	// Index is the full-FCM anomaly index (from Full or Partial).
	Index float64 `json:"anomalyIndex"`
	// SlicedIndex is the maximum per-switch anomaly index.
	SlicedIndex float64 `json:"slicedIndex"`
	// Suspects is the sliced localization, strongest suspect first.
	Suspects []SwitchID `json:"suspects"`
	// Localization is the active-probe culprit report (nil unless the
	// observation carried a LocalizeConfig and the verdict was
	// anomalous).
	Localization *Localization `json:"localization,omitempty"`
	// Timings carries the per-stage wall times.
	Timings RunTimings `json:"timings"`
}

// PartialResult is the shape Report.Partial used to carry.
//
// Deprecated: see Report.Partial.
type PartialResult struct{ Result }

// MarshalJSON serializes the report with its schema version stamped
// in, clamping infinite anomaly indices (a zero median error with a
// non-zero max yields +Inf, which JSON cannot carry) the same way the
// RunEvent ring does. The dense engine payloads (Full, Sliced) stay
// out of the wire format: they carry O(rules) vectors.
func (r Report) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil)
}

// AppendJSON appends the report's canonical wire encoding — the same
// bytes MarshalJSON produces, schema stamp and all — to dst and
// returns the extended buffer. It is the allocation-free serialization
// path for hot consumers (the /status recent ring, StreamReport
// publishers, experiment digests): hand it a recycled buffer and keep
// the returned slice for the next report. Only the rare Localization
// payload falls back to encoding/json.
func (r *Report) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"schema":"`...)
	dst = append(dst, ReportSchema...)
	dst = append(dst, `","mode":`...)
	dst = appendJSONString(dst, r.Mode.String())
	dst = append(dst, `,"path":`...)
	dst = appendJSONString(dst, r.Path)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendUint(dst, r.Epoch, 10)
	if r.EpochLag != 0 {
		dst = append(dst, `,"epochLag":`...)
		dst = strconv.AppendUint(dst, r.EpochLag, 10)
	}
	if len(r.MaskedRows) > 0 {
		dst = append(dst, `,"maskedRows":[`...)
		for i, v := range r.MaskedRows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
	}
	if len(r.Missing) > 0 {
		dst = append(dst, `,"missing":[`...)
		for i, sw := range r.Missing {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(sw), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"anomalous":`...)
	dst = strconv.AppendBool(dst, r.Anomalous)
	dst = append(dst, `,"anomalyIndex":`...)
	dst = appendJSONFloat(dst, finiteIndex(r.Index))
	dst = append(dst, `,"slicedIndex":`...)
	dst = appendJSONFloat(dst, finiteIndex(r.SlicedIndex))
	// Suspects carries no omitempty: nil means "sliced stage did not
	// run" (null), empty means "ran, nobody suspect" ([]).
	dst = append(dst, `,"suspects":`...)
	if r.Suspects == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, sw := range r.Suspects {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(sw), 10)
		}
		dst = append(dst, ']')
	}
	if r.Localization != nil {
		dst = append(dst, `,"localization":`...)
		b, err := json.Marshal(r.Localization)
		if err != nil {
			return nil, err
		}
		dst = append(dst, b...)
	}
	dst = append(dst, `,"timings":{"fullNs":`...)
	dst = strconv.AppendInt(dst, int64(r.Timings.Full), 10)
	dst = append(dst, `,"slicedNs":`...)
	dst = strconv.AppendInt(dst, int64(r.Timings.Sliced), 10)
	dst = append(dst, `,"localizeNs":`...)
	dst = strconv.AppendInt(dst, int64(r.Timings.Localize), 10)
	dst = append(dst, `,"totalNs":`...)
	dst = strconv.AppendInt(dst, int64(r.Timings.Total), 10)
	dst = append(dst, "}}"...)
	return dst, nil
}

// appendJSONString appends s as a JSON string. The fast path covers
// the printable-ASCII strings every report field actually carries;
// anything needing escapes takes encoding/json's exact path (HTML
// escaping included) so the bytes never diverge from json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat appends f exactly as encoding/json encodes a
// float64: shortest round-trip form, scientific notation outside
// [1e-6, 1e21) with the exponent's leading zero stripped. The caller
// clamps infinities first.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// RunEvent is the compact verdict record System pushes into its recent
// ring after every Run — the telemetry stream behind focesd's /status
// "recent" view. Infinite anomaly indices are clamped to
// math.MaxFloat64 so the event always JSON-encodes.
type RunEvent struct {
	Path        string     `json:"path"`
	Epoch       uint64     `json:"epoch"`
	Anomalous   bool       `json:"anomalous"`
	Index       float64    `json:"anomalyIndex"`
	SlicedIndex float64    `json:"slicedIndex"`
	Suspects    []SwitchID `json:"suspects"`
	// Localized is true when the run's active-probe localization named
	// a culprit at confidence.
	Localized bool  `json:"localized,omitempty"`
	ElapsedNS int64 `json:"elapsedNs"`
}

// Event compresses the report into its recent-ring record — the one
// code path behind both the ring snapshot and focesd's /status view.
func (r *Report) Event() RunEvent {
	return RunEvent{
		Path:        r.Path,
		Epoch:       r.Epoch,
		Anomalous:   r.Anomalous,
		Index:       finiteIndex(r.Index),
		SlicedIndex: finiteIndex(r.SlicedIndex),
		Suspects:    r.Suspects,
		Localized:   r.Localization != nil && r.Localization.Localized,
		ElapsedNS:   r.Timings.Total.Nanoseconds(),
	}
}

// defaultRecentRuns is the capacity of the recent-verdict ring.
const defaultRecentRuns = 64

// Run executes one detection window. It validates the observation,
// builds the window's row mask (rows of obs.Missing switches ∪ rows
// changed since obs.Epoch; empty on a clean window), runs the engines
// obs.Mode selects on the unmasked rows, and aggregates everything into
// one Report. A mask that covers every installed rule is an error: a
// blind window has no verdict.
//
//	rep, err := sys.Run(foces.Observation{
//		Counters: poll.Deltas,
//		RunOptions: foces.RunOptions{
//			Missing: poll.Missing,
//			Epoch:   windowEpoch, // oldest straddled epoch, or sys.Epoch()
//		},
//	})
//
// Run is the supported entry point; Detect, DetectSliced and
// DetectReconciled are deprecated wrappers over it.
func (s *System) Run(obs Observation) (Report, error) {
	s.baselineMu.RLock()
	defer s.baselineMu.RUnlock()
	return s.runLocked(obs, nil)
}

// SlicedRunner is the Algorithm 2 execution surface a Run needs:
// sliced detection over a full counter vector with a (possibly empty)
// set of global rule rows masked. It is satisfied by
// *core.SlicedDetector (the local engine) and by the cluster
// coordinator, which fans the per-slice work across detector nodes and
// merges partial verdicts through the same core.MergeSliceResults the
// local engine uses.
type SlicedRunner interface {
	DetectMasked(y []float64, masked []int, opts DetectOptions) (SlicedOutcome, error)
}

// RunWith executes one detection window like Run but delegates the
// sliced (Algorithm 2) stage to the given runner — the cluster entry
// point, for every kind of window. The full (Algorithm 1) stage runs
// locally: the full engine lives with the baseline. A nil runner is
// exactly Run.
func (s *System) RunWith(obs Observation, sliced SlicedRunner) (Report, error) {
	s.baselineMu.RLock()
	defer s.baselineMu.RUnlock()
	return s.runLocked(obs, sliced)
}

// runLocked is Run's body; the caller holds baselineMu's read side. A
// nil runner selects the local sliced engine.
func (s *System) runLocked(obs Observation, runner SlicedRunner) (Report, error) {
	start := time.Now()
	// Counter vectors assembled from obs.Counters are recycled once the
	// engines (which copy what they keep) are done with them.
	var pooledY []float64
	defer func() { s.putVector(pooledY) }()
	rep := Report{Mode: obs.Mode, Path: PathClean, Epoch: s.Epoch()}
	if obs.Epoch > rep.Epoch {
		return Report{}, fmt.Errorf("foces: observation epoch %d is ahead of baseline epoch %d", obs.Epoch, rep.Epoch)
	}
	opts := obs.Options
	if opts == (DetectOptions{}) {
		opts = s.opts
	}
	if runner == nil {
		runner = s.sliced
	}
	y, pooled, err := s.observationVector(obs)
	if err != nil {
		return Report{}, err
	}
	if pooled {
		pooledY = y
	}
	if obs.Epoch < rep.Epoch {
		rep.Path = PathReconciled
		rep.EpochLag = rep.Epoch - obs.Epoch
		rep.MaskedRows = s.AffectedSince(obs.Epoch)
		// A window snapshotted before rule additions is legitimately
		// short: the new rows are masked anyway, so zero-pad rather
		// than reject. (A current window is never padded — a short
		// vector there means a stale caller and must error.)
		if space := s.fcm.NumRules(); len(y) < space {
			padded := make([]float64, space)
			copy(padded, y)
			y = padded
		}
	}
	if len(obs.Missing) > 0 {
		rep.Path = PathMissing
		rep.Missing = obs.Missing
	}
	mask, err := s.windowMask(rep.MaskedRows, obs.Missing)
	if err != nil {
		return Report{}, err
	}

	if obs.Mode == ModeAuto || obs.Mode == ModeFull {
		d, err := s.fullDetector()
		if err != nil {
			return Report{}, err
		}
		t0 := time.Now()
		res, err := d.DetectMasked(y, mask, opts)
		if err != nil {
			return Report{}, err
		}
		rep.Timings.Full = time.Since(t0)
		rep.Full = &res
		rep.Index = res.Index
		rep.Anomalous = res.Anomalous
	}
	if obs.Mode == ModeAuto || obs.Mode == ModeSliced {
		t0 := time.Now()
		so, err := runner.DetectMasked(y, mask, opts)
		if err != nil {
			return Report{}, err
		}
		rep.Timings.Sliced = time.Since(t0)
		rep.Sliced = &so
	}

	if rep.Sliced != nil {
		rep.SlicedIndex = rep.Sliced.MaxIndex()
		rep.Suspects = rep.Sliced.Suspects
		rep.Anomalous = rep.Anomalous || rep.Sliced.Anomalous
	}
	s.maybeLocalize(obs, &rep)
	rep.Timings.Total = time.Since(start)
	s.recordRun(&rep)
	return rep, nil
}

// windowMask resolves a window's one row mask: the rows its churn lag
// already masks plus every rule row hosted on a switch that did not
// report. Nil (nothing masked) is the clean window. A mask that leaves
// no installed rule visible is an error — placeholder rows of retired
// rule IDs carry nothing, so they do not count as visible.
func (s *System) windowMask(churned []int, missing []SwitchID) ([]int, error) {
	if len(churned) == 0 && len(missing) == 0 {
		return nil, nil
	}
	covered, err := core.RowMask(s.fcm.NumRules(), churned)
	if err != nil {
		return nil, err
	}
	down := make(map[SwitchID]bool, len(missing))
	for _, sw := range missing {
		down[sw] = true
	}
	mask := churned[:len(churned):len(churned)] // appends copy; Report.MaskedRows stays churn-only
	visible := false
	for _, r := range s.fcm.Rules {
		switch {
		case r.Switch < 0 || (covered != nil && covered[r.ID]):
		case down[r.Switch]:
			mask = append(mask, r.ID)
		default:
			visible = true
		}
	}
	if !visible {
		return nil, fmt.Errorf("foces: every installed rule row is masked (%d switches missing, %d rows changed mid-window); nothing to check", len(missing), len(churned))
	}
	return mask, nil
}

// observationVector resolves the dense counter vector from an
// observation, erroring when neither or both sources are set. Vectors
// assembled from Counters come from the system's recycle list; pooled
// reports whether the caller must hand the vector back through
// putVector once the engines are done with it (caller-supplied Vectors
// are never recycled — the system does not own them).
func (s *System) observationVector(obs Observation) (y []float64, pooled bool, err error) {
	switch {
	case obs.Vector != nil && obs.Counters != nil:
		return nil, false, fmt.Errorf("foces: observation sets both Vector and Counters; provide exactly one")
	case obs.Vector != nil:
		return obs.Vector, false, nil
	case obs.Counters != nil:
		space := s.fcm.NumRules()
		for id := range obs.Counters {
			if id < 0 || id >= space {
				return nil, false, fmt.Errorf("foces: counter for rule %d outside the baseline's %d-rule space (snapshot from a different rule generation?)", id, space)
			}
		}
		return s.fcm.CounterVectorInto(s.getVector(), obs.Counters), true, nil
	}
	return nil, false, fmt.Errorf("foces: observation carries no counters (set Counters or Vector)")
}

// maxPooledVectors caps the counter-vector free list; beyond it,
// releases fall through to the garbage collector.
const maxPooledVectors = 32

// getVector pops a recycled counter vector (nil when the list is
// empty; CounterVectorInto allocates in that case).
func (s *System) getVector() []float64 {
	s.scratchMu.Lock()
	defer s.scratchMu.Unlock()
	if n := len(s.vecFree); n > 0 {
		v := s.vecFree[n-1]
		s.vecFree[n-1] = nil
		s.vecFree = s.vecFree[:n-1]
		return v
	}
	return nil
}

// putVector returns a counter vector to the free list. Safe on nil.
func (s *System) putVector(v []float64) {
	if v == nil {
		return
	}
	s.scratchMu.Lock()
	if len(s.vecFree) < maxPooledVectors {
		s.vecFree = append(s.vecFree, v)
	}
	s.scratchMu.Unlock()
}

// pathTel is one dispatch path's label-resolved system children.
type pathTel struct {
	seconds   *telemetry.Histogram
	anomalous *telemetry.Counter
	clean     *telemetry.Counter
}

// sysRecorder holds every system-level metric child resolved at
// EnableTelemetry time, so recordRun touches only atomics — no label
// joins or registry lookups on the per-Run path.
type sysRecorder struct {
	clean      pathTel
	missing    pathTel
	reconciled pathTel
	epochLag   *telemetry.Histogram
	maskedRows *telemetry.Histogram
}

func newSysRecorder(m *telemetry.SystemMetrics) *sysRecorder {
	resolve := func(path string) pathTel {
		return pathTel{
			seconds:   m.RunSeconds.With(path),
			anomalous: m.Runs.With(path, core.VerdictAnomalous),
			clean:     m.Runs.With(path, core.VerdictClean),
		}
	}
	return &sysRecorder{
		clean:      resolve(PathClean),
		missing:    resolve(PathMissing),
		reconciled: resolve(PathReconciled),
		epochLag:   m.EpochLag,
		maskedRows: m.MaskedRows,
	}
}

// recordRun mirrors a completed Run into the system telemetry families
// and the recent-verdict ring.
func (s *System) recordRun(rep *Report) {
	if r := s.sysRec; r != nil {
		pt := &r.clean
		switch rep.Path {
		case PathMissing:
			pt = &r.missing
		case PathReconciled:
			pt = &r.reconciled
		}
		pt.seconds.Observe(rep.Timings.Total.Seconds())
		if rep.Anomalous {
			pt.anomalous.Inc()
		} else {
			pt.clean.Inc()
		}
		if rep.EpochLag > 0 {
			r.epochLag.Observe(float64(rep.EpochLag))
			r.maskedRows.Observe(float64(len(rep.MaskedRows)))
		}
	}
	s.events.Push(rep.Event())
}

// finiteIndex clamps +Inf anomaly indices so RunEvent always
// JSON-encodes.
func finiteIndex(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// probeRecorder holds the active-probe metric children resolved at
// EnableTelemetry time, mirroring sysRecorder: recordLocalization
// touches only atomics.
type probeRecorder struct {
	probeClean  *telemetry.Counter
	probeFailed *telemetry.Counter
	probeError  *telemetry.Counter
	localized   *telemetry.Counter
	unresolved  *telemetry.Counter
	perLoc      *telemetry.Histogram
	seconds     *telemetry.Histogram
	suspects    *telemetry.Histogram
	confidence  *telemetry.Histogram
}

func newProbeRecorder(m *telemetry.ProbeMetrics) *probeRecorder {
	return &probeRecorder{
		probeClean:  m.Probes.With("clean"),
		probeFailed: m.Probes.With("failed"),
		probeError:  m.Probes.With("error"),
		localized:   m.Localizations.With("localized"),
		unresolved:  m.Localizations.With("unresolved"),
		perLoc:      m.ProbesPerLocalization,
		seconds:     m.LocalizeSeconds,
		suspects:    m.SuspectRules,
		confidence:  m.Confidence,
	}
}

// recordLocalization mirrors a completed localization into the
// foces_probe_* telemetry family.
func (s *System) recordLocalization(loc *Localization) {
	r := s.probeRec
	if r == nil {
		return
	}
	r.probeClean.Add(uint64(loc.CleanProbes))
	r.probeFailed.Add(uint64(loc.FailedProbes))
	r.probeError.Add(uint64(loc.ErrorProbes))
	if loc.Localized {
		r.localized.Inc()
	} else {
		r.unresolved.Inc()
	}
	r.perLoc.Observe(float64(loc.ProbesUsed))
	r.seconds.Observe(loc.Elapsed.Seconds())
	r.suspects.Observe(float64(loc.SuspectRules))
	if top, ok := loc.TopCulprit(); ok {
		r.confidence.Observe(top.Confidence)
	}
}

// telWiring is one registry's set of metric families, cached so
// EnableTelemetry can switch a System between registries (e.g. a no-op
// and a live one in an overhead measurement) without re-registering.
type telWiring struct {
	det   *telemetry.DetectionMetrics
	ch    *telemetry.ChurnMetrics
	sys   *sysRecorder
	probe *probeRecorder
}

// EnableTelemetry registers the detection, churn and system metric
// families on reg and wires every engine the system owns (including
// engines rebuilt by future churn epochs) to record into them. It also
// arms the recent-verdict ring behind RecentRuns. Call before
// detection traffic starts; calling again with a registry this system
// has already seen reuses its families, so switching wirings is cheap
// and panic-free.
//
// Collector metrics are wired separately
// (telemetry.NewCollectorMetrics + RobustCollector.SetTelemetry): the
// collection plane is owned by the embedding application, not by
// System.
func (s *System) EnableTelemetry(reg *telemetry.Registry) {
	w := s.wirings[reg]
	if w == nil {
		w = &telWiring{
			det:   telemetry.NewDetectionMetrics(reg),
			ch:    telemetry.NewChurnMetrics(reg),
			sys:   newSysRecorder(telemetry.NewSystemMetrics(reg)),
			probe: newProbeRecorder(telemetry.NewProbeMetrics(reg)),
		}
		if s.wirings == nil {
			s.wirings = make(map[*telemetry.Registry]*telWiring)
		}
		s.wirings[reg] = w
	}
	s.detTel, s.churnTel, s.sysRec, s.probeRec = w.det, w.ch, w.sys, w.probe
	if s.events == nil {
		s.events = telemetry.NewRing[RunEvent](defaultRecentRuns)
	}
	s.churnMgr.SetTelemetry(s.detTel, s.churnTel)
}

// RecentRuns returns the most recent Run verdicts, oldest first. Empty
// until EnableTelemetry arms the ring.
func (s *System) RecentRuns() []RunEvent { return s.events.Snapshot() }

// TelemetryRegistry is the metric registry EnableTelemetry wires a
// System to. Its Handler method serves Prometheus text-exposition
// format 0.0.4, WriteText streams the same exposition to a
// bufio.Writer, and Gather snapshots every family for programmatic
// inspection. Re-exported here so applications outside this module can
// construct one (the implementation lives in an internal package).
type TelemetryRegistry = telemetry.Registry

// MetricsSnapshot is one metric family as returned by
// TelemetryRegistry.Gather.
type MetricsSnapshot = telemetry.FamilySnapshot

// NewTelemetryRegistry returns an empty live metric registry, ready
// for System.EnableTelemetry and for mounting its Handler.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.New() }

// NewNopTelemetryRegistry returns a no-op registry: wiring a System to
// it keeps instrumentation structurally in place while every metric
// update short-circuits. Useful for overhead measurements and for
// disabling telemetry without branching application code.
func NewNopTelemetryRegistry() *TelemetryRegistry { return telemetry.NewNop() }
