package main

import (
	"encoding/json"
	"net"
	"net/http"
	"sync"
	"time"

	"foces"
	"foces/internal/churn"
	"foces/internal/cluster"
	"foces/internal/collector"
	"foces/internal/telemetry"
	"foces/internal/topo"
)

// runtimeView is the /status view of Go runtime health: live heap,
// cumulative GC pause and cycle totals, and the allocation rate seen
// between the last two samples — enough to spot the detection loop
// turning into a GC treadmill without attaching a profiler.
type runtimeView struct {
	HeapLiveBytes  uint64  `json:"heapLiveBytes"`
	GCPauseMsTotal float64 `json:"gcPauseMsTotal"`
	GCCycles       uint64  `json:"gcCycles"`
	AllocsPerSec   float64 `json:"allocsPerSec"`
}

// runtimeStatus samples the runtime and snapshots the gauges for
// /status. Nil inputs (telemetry disabled) yield nil, which the JSON
// encoder omits.
func runtimeStatus(s *telemetry.RuntimeSampler, m *telemetry.RuntimeMetrics) *runtimeView {
	if s == nil || m == nil {
		return nil
	}
	s.Sample()
	return &runtimeView{
		HeapLiveBytes:  uint64(m.HeapLiveBytes.Value()),
		GCPauseMsTotal: m.GCPauseSecondsTotal.Value() * 1000,
		GCCycles:       uint64(m.GCCyclesTotal.Value()),
		AllocsPerSec:   m.AllocsPerSecond.Value(),
	}
}

// collection is the /status view of the fault-tolerant collection
// plane: cumulative operational counters plus the current quarantine
// set and the latest poll's latency.
type collection struct {
	Requests       uint64          `json:"requests"`
	Retries        uint64          `json:"retries"`
	Timeouts       uint64          `json:"timeouts"`
	Failures       uint64          `json:"failures"`
	Probes         uint64          `json:"probes"`
	Quarantines    uint64          `json:"quarantines"`
	Reinstatements uint64          `json:"reinstatements"`
	Resets         uint64          `json:"resets"`
	Quarantined    []topo.SwitchID `json:"quarantined"`
	LastPollMs     float64         `json:"lastPollMs"`
}

// collectionStatus snapshots the collection plane for /status: the
// collector's fetch and health counters, the resets its windows showed.
func collectionStatus(rc *collector.RobustCollector, st collector.StreamStats) collection {
	m := rc.Metrics()
	q := rc.Quarantined()
	if q == nil {
		q = []topo.SwitchID{}
	}
	return collection{
		Requests:       m.Requests,
		Retries:        m.Retries,
		Timeouts:       m.Timeouts,
		Failures:       m.Failures,
		Probes:         m.Probes,
		Quarantines:    m.Quarantines,
		Reinstatements: m.Reinstatements,
		Resets:         st.Resets,
		Quarantined:    q,
		LastPollMs:     float64(m.LastElapsed.Microseconds()) / 1000,
	}
}

// churnView is the /status view of the epoch-versioned rule-churn
// subsystem: current epoch plus cumulative incremental-maintenance
// work, so an operator can see updates being absorbed without full
// rebuilds.
type churnView struct {
	Epoch            uint64  `json:"epoch"`
	Updates          int     `json:"updates"`
	Events           int     `json:"events"`
	Retraced         int     `json:"retracedSources"`
	SlicesReused     int     `json:"slicesReused"`
	SlicesUpdated    int     `json:"slicesUpdated"`
	SlicesRefactored int     `json:"slicesRefactored"`
	FullRebuilds     int     `json:"fullRebuilds"`
	LastUpdateMs     float64 `json:"lastUpdateMs"`
}

// churnStatus snapshots a churn manager for /status.
func churnStatus(st churn.Stats) churnView {
	return churnView{
		Epoch:            st.Epoch,
		Updates:          st.Updates,
		Events:           st.Events,
		Retraced:         st.Retraced,
		SlicesReused:     st.SlicesReused,
		SlicesUpdated:    st.SlicesUpdated,
		SlicesRefactored: st.SlicesRefactored,
		FullRebuilds:     st.FullRebuilds,
		LastUpdateMs:     float64(st.LastElapsed.Microseconds()) / 1000,
	}
}

// streamView is the /status view of the streaming ingestion plane:
// bounded-queue state, window/drop accounting, sampler state and the
// end-to-end ingest-to-verdict latency tail.
type streamView struct {
	Windows        uint64  `json:"windows"`
	Pushes         uint64  `json:"pushes"`
	Updates        uint64  `json:"updates"`
	QueueDepth     int     `json:"queueDepth"`
	Coalesced      uint64  `json:"coalesced"`
	DroppedUpdates uint64  `json:"droppedUpdates"`
	DroppedWindows uint64  `json:"droppedWindows"`
	LastWindow     uint64  `json:"lastWindow"`
	LastLagMs      float64 `json:"lastLagMs"`
	P99LatencyMs   float64 `json:"p99LatencyMs"`
	// Sampler is the adaptive sampler's state (zero-valued when the
	// sampler is disabled).
	Sampler collector.SamplerStats `json:"sampler"`
}

// streamStatus snapshots the streaming plane for /status.
func streamStatus(st collector.StreamStats, sampler *collector.AdaptiveSampler, lastWindow uint64, lastLag time.Duration, p99 time.Duration) streamView {
	v := streamView{
		Windows:        st.Windows,
		Pushes:         st.Pushes,
		Updates:        st.Updates,
		QueueDepth:     st.QueueDepth,
		Coalesced:      st.Coalesced,
		DroppedUpdates: st.DroppedUpdates,
		DroppedWindows: st.DroppedWindows,
		LastWindow:     lastWindow,
		LastLagMs:      float64(lastLag.Microseconds()) / 1000,
		P99LatencyMs:   float64(p99.Microseconds()) / 1000,
	}
	if sampler != nil {
		v.Sampler = sampler.Stats()
	}
	return v
}

// status is the JSON document served at /status.
type status struct {
	Period       int             `json:"period"`
	AttackActive bool            `json:"attackActive"`
	Index        float64         `json:"anomalyIndex"`
	Anomalous    bool            `json:"anomalous"`
	Alarm        bool            `json:"alarm"`
	SlicedIndex  float64         `json:"slicedIndex"`
	Suspects     []topo.SwitchID `json:"suspects"`
	// Localization is the latest anomalous window's active-probe
	// culprit report; nil without -localize or while the network is
	// clean.
	Localization     *foces.Localization `json:"localization,omitempty"`
	MissingSwitches  int                 `json:"missingSwitches"`
	StraddledWindows int                 `json:"straddledWindows"`
	Collection       collection          `json:"collection"`
	Churn            churnView           `json:"churn"`
	// Stream is the streaming ingestion plane's state.
	Stream *streamView `json:"stream,omitempty"`
	// Cluster is the sharded-detection coordinator's state — live and
	// configured node counts, the degraded flag, per-peer shard
	// ownership, eviction/requeue totals; nil outside -role coordinator.
	Cluster *cluster.Status `json:"cluster,omitempty"`
	// Runtime is the Go runtime health block (heap, GC, allocation
	// rate); nil when telemetry is disabled.
	Runtime *runtimeView `json:"runtime,omitempty"`
	// Recent is the verdict ring rebuilt from the system's telemetry
	// events: the last N Run outcomes, oldest first.
	Recent []foces.RunEvent `json:"recent"`
}

// statusServer exposes the daemon's latest detection state over HTTP —
// the minimal operational surface a real deployment would scrape.
type statusServer struct {
	mu   sync.Mutex
	cur  status
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// startStatusServer listens on addr ("127.0.0.1:0" picks a free port)
// and serves GET /status.
func startStatusServer(addr string) (*statusServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &statusServer{ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", s.handle)
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		// Serve returns ErrServerClosed on Close; nothing to report.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr reports the bound address.
func (s *statusServer) Addr() string { return s.ln.Addr().String() }

// Update publishes the latest period's state.
func (s *statusServer) Update(st status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur = st
}

// Close stops the server and waits for the serve goroutine.
func (s *statusServer) Close() {
	_ = s.srv.Close()
	<-s.done
}

func (s *statusServer) handle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	st := s.cur
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	// Suspects/Recent may be nil; emit [] for stable JSON.
	if st.Suspects == nil {
		st.Suspects = []topo.SwitchID{}
	}
	if st.Recent == nil {
		st.Recent = []foces.RunEvent{}
	}
	if err := json.NewEncoder(w).Encode(st); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
