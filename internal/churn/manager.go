package churn

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"foces/internal/controller"
	"foces/internal/core"
	"foces/internal/fcm"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/matrix"
	"foces/internal/telemetry"
	"foces/internal/topo"
)

// class is one logical-flow equivalence class, keyed by the set of
// rules its packets traverse. The uid is stable for the class's
// lifetime (and never reused), so two generations' columns can be
// compared for identity without comparing histories.
type class struct {
	uid     uint64
	key     string
	history []int        // representative rule history, path order
	space   header.Space // representative header space
	// bySource maps each contributing source host to its delivered
	// destinations (−1 for drops), in discovery order.
	bySource map[topo.HostID][]topo.HostID
	dead     bool
}

// sliceMeta remembers what a per-switch engine was built from, so the
// next update can decide reuse / rank-one repair / refactor.
type sliceMeta struct {
	rows    []int    // global rule IDs, ascending (Slice.RuleRows)
	colUIDs []uint64 // class uid per sub-FCM column
	engine  *core.Detector
}

// Manager owns the epoch-versioned detection baseline for one network:
// live rules, per-source symbolic traces, logical-flow classes, the
// sparse FCM, and the per-switch prepared engines — all maintained
// incrementally under Apply. It is safe for concurrent use; detection
// may run concurrently with itself, and Apply serializes against
// everything.
type Manager struct {
	mu     sync.Mutex
	topol  *topo.Topology
	layout *header.Layout
	opts   core.Options
	cfg    Config

	epoch uint64
	log   Log
	stats Stats

	rules   map[int]flowtable.Rule
	retired map[int]bool
	space   int // exclusive upper bound of ever-allocated rule IDs
	tables  map[topo.SwitchID]*flowtable.Table

	hostOrder  []topo.HostID
	pins       map[topo.HostID]header.Space // fcm.SourcePin per source
	traces     map[topo.HostID]*fcm.SourceTrace
	classes    map[string]*class
	order      []*class // column order: survivors first, in prior order
	srcClasses map[topo.HostID]map[*class]bool
	nextUID    uint64

	fcmCur    *fcm.FCM
	slices    []core.Slice
	sliced    *core.SlicedDetector
	sliceMeta map[topo.SwitchID]*sliceMeta
	replica   map[topo.SwitchID]*ReplicaState

	full      *core.Detector
	fullEpoch uint64
	fullOK    bool

	// Telemetry wiring (nil unless SetTelemetry was called): det is
	// re-applied to every engine generation rebuild creates; tel records
	// the incremental-maintenance activity itself.
	det *telemetry.DetectionMetrics
	tel *telemetry.ChurnMetrics
}

// NewManager seeds a manager from a rule set (the cold baseline). space
// is the exclusive upper bound of ever-allocated rule IDs
// (controller.RuleSpace()); IDs in [0, space) absent from rules are
// treated as retired and become permanent placeholder rows.
func NewManager(t *topo.Topology, layout *header.Layout, rules []flowtable.Rule, space int, opts core.Options, cfg Config) (*Manager, error) {
	m := &Manager{
		topol:      t,
		layout:     layout,
		opts:       opts,
		cfg:        cfg.withDefaults(),
		rules:      make(map[int]flowtable.Rule, len(rules)),
		retired:    make(map[int]bool),
		space:      space,
		pins:       make(map[topo.HostID]header.Space),
		traces:     make(map[topo.HostID]*fcm.SourceTrace),
		classes:    make(map[string]*class),
		srcClasses: make(map[topo.HostID]map[*class]bool),
		sliceMeta:  make(map[topo.SwitchID]*sliceMeta),
		replica:    make(map[topo.SwitchID]*ReplicaState),
	}
	for _, r := range rules {
		if r.ID < 0 || r.ID >= space {
			return nil, fmt.Errorf("churn: rule ID %d outside rule space [0,%d)", r.ID, space)
		}
		if _, dup := m.rules[r.ID]; dup {
			return nil, fmt.Errorf("churn: duplicate rule ID %d", r.ID)
		}
		m.rules[r.ID] = r
	}
	for id := 0; id < space; id++ {
		if _, live := m.rules[id]; !live {
			m.retired[id] = true
		}
	}
	tables, err := fcm.BuildTables(t, rules)
	if err != nil {
		return nil, err
	}
	m.tables = tables
	for _, h := range t.Hosts() {
		m.hostOrder = append(m.hostOrder, h.ID)
		pin, err := fcm.SourcePin(layout, h)
		if err != nil {
			return nil, err
		}
		m.pins[h.ID] = pin
		tr, err := fcm.TraceSource(t, layout, tables, h)
		if err != nil {
			return nil, err
		}
		m.mergeTrace(tr)
	}
	m.stats.Sources = len(m.hostOrder)
	if err := m.rebuild(nil); err != nil {
		return nil, err
	}
	return m, nil
}

// mergeTrace folds one source's records into the class structures
// (first-discovery order, matching fcm.GenerateSparse exactly on a cold
// build) and stores the trace.
func (m *Manager) mergeTrace(tr *fcm.SourceTrace) {
	set := m.srcClasses[tr.Src]
	if set == nil {
		set = make(map[*class]bool)
		m.srcClasses[tr.Src] = set
	}
	for _, rec := range tr.Records {
		key := fcm.HistoryKey(rec.History)
		c, ok := m.classes[key]
		if !ok {
			c = &class{
				uid:      m.nextUID,
				key:      key,
				history:  rec.History,
				space:    rec.Space,
				bySource: make(map[topo.HostID][]topo.HostID),
			}
			m.nextUID++
			m.classes[key] = c
			m.order = append(m.order, c)
		}
		c.dead = false
		c.bySource[tr.Src] = append(c.bySource[tr.Src], rec.Dst)
		set[c] = true
	}
	m.traces[tr.Src] = tr
}

// liveRules returns the live rule set sorted by ID.
func (m *Manager) liveRules() []flowtable.Rule {
	out := make([]flowtable.Rule, 0, len(m.rules))
	for _, r := range m.rules {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// rebuild reassembles the FCM from the class structures and rebuilds
// the sliced engine, carrying over or rank-one-repairing per-switch
// engines where the update permits. u (nil on the cold seed) receives
// the engine-disposition counts.
func (m *Manager) rebuild(u *Update) error {
	flows := make([]*fcm.Flow, 0, len(m.order))
	for _, c := range m.order {
		fl := &fcm.Flow{RuleIDs: c.history, Space: c.space}
		for _, src := range m.hostOrder {
			for _, dst := range c.bySource[src] {
				fl.Pairs = append(fl.Pairs, fcm.Pair{Src: src, Dst: dst})
			}
		}
		flows = append(flows, fl)
	}
	f, err := fcm.Assemble(m.topol, m.layout, m.liveRules(), m.space, flows)
	if err != nil {
		return err
	}
	slices, err := core.BuildSlices(f)
	if err != nil {
		return err
	}
	colUID := make([]uint64, len(m.order))
	for j, c := range m.order {
		colUID[j] = c.uid
	}
	// Per-slice engine builds are independent (each reads only the old
	// generation's meta and clones any factor it repairs), so fan them
	// across the kernel workers; dispositions and errors are aggregated
	// in slice order afterwards so reporting stays deterministic.
	sliceUIDs := make([][]uint64, len(slices))
	olds := make([]*sliceMeta, len(slices))
	for i, sl := range slices {
		uids := make([]uint64, len(sl.FlowCols))
		for k, col := range sl.FlowCols {
			uids[k] = colUID[col]
		}
		sliceUIDs[i] = uids
		olds[i] = m.sliceMeta[sl.Switch]
	}
	var buildStart time.Time
	if m.tel != nil {
		buildStart = time.Now()
	}
	engines := make([]*core.Detector, len(slices))
	dispositions := make([]sliceDisposition, len(slices))
	changes := make([]*SliceChange, len(slices))
	buildErrs := make([]error, len(slices))
	matrix.FanOut(len(slices), matrix.KernelWorkers(), func(i int) {
		engines[i], dispositions[i], changes[i], buildErrs[i] = m.buildSliceEngine(slices[i], sliceUIDs[i], olds[i])
	})
	if m.tel != nil {
		m.tel.PrepareSeconds.With("slice_build").ObserveDuration(time.Since(buildStart).Nanoseconds())
	}
	epoch := uint64(0)
	if u != nil {
		epoch = u.Epoch
	}
	meta := make(map[topo.SwitchID]*sliceMeta, len(slices))
	replica := make(map[topo.SwitchID]*ReplicaState, len(slices))
	for i, sl := range slices {
		if buildErrs[i] != nil {
			return buildErrs[i]
		}
		meta[sl.Switch] = &sliceMeta{rows: sl.RuleRows, colUIDs: sliceUIDs[i], engine: engines[i]}
		// Replica-log maintenance mirrors the engine disposition exactly:
		// a refactor resets the slice's replication base (the snapshot a
		// joining or fill-rejected replica is served), a rank-one repair
		// appends the rows it applied, and a reused engine carries its
		// state forward untouched. Dropped switches fall out of the map.
		switch dispositions[i] {
		case sliceReused:
			replica[sl.Switch] = m.replica[sl.Switch]
			if u != nil {
				u.SlicesReused++
			}
		case sliceUpdated:
			prev := m.replica[sl.Switch]
			ch := *changes[i]
			ch.Epoch = epoch
			replica[sl.Switch] = &ReplicaState{
				Switch:    sl.Switch,
				BaseEpoch: prev.BaseEpoch,
				BaseRows:  prev.BaseRows,
				BaseH:     prev.BaseH,
				Changes:   append(append([]SliceChange(nil), prev.Changes...), ch),
			}
			if u != nil {
				u.SlicesUpdated++
			}
		default:
			replica[sl.Switch] = &ReplicaState{
				Switch:    sl.Switch,
				BaseEpoch: epoch,
				BaseRows:  sl.RuleRows,
				BaseH:     sl.H,
			}
			if u != nil {
				u.SlicesRefactored++
			}
		}
	}
	sliced, err := core.NewSlicedDetectorWithEngines(slices, engines, m.space, m.opts)
	if err != nil {
		return err
	}
	// Wire telemetry before the new generation is published so no
	// detection ever observes a half-wired engine.
	sliced.SetTelemetry(m.det)
	m.fcmCur = f
	m.slices = slices
	m.sliced = sliced
	m.sliceMeta = meta
	m.replica = replica
	m.fullOK = false // Algorithm 1 engine is rebuilt lazily on demand
	return nil
}

type sliceDisposition int

const (
	sliceRefactored sliceDisposition = iota
	sliceReused
	sliceUpdated
)

// buildSliceEngine decides, for one slice of the new generation,
// whether the previous engine can be reused (identical rows and column
// classes), repaired by rank-one update/downdate (identical column
// classes, row delta within threshold), or must be refactored.
func (m *Manager) buildSliceEngine(sl core.Slice, uids []uint64, old *sliceMeta) (*core.Detector, sliceDisposition, *SliceChange, error) {
	if old != nil && equalUIDs(old.colUIDs, uids) {
		removed, added := rowDelta(old.rows, sl.RuleRows)
		if len(removed) == 0 && len(added) == 0 {
			return old.engine, sliceReused, nil, nil
		}
		if m.cfg.UpdateThreshold > 0 && len(removed)+len(added) <= m.cfg.UpdateThreshold {
			if eng, ch, err := m.rankOneRepair(sl, old, removed, added); err != nil {
				return nil, sliceRefactored, nil, err
			} else if eng != nil {
				return eng, sliceUpdated, ch, nil
			}
		}
	}
	// Refactor path. Reusing the previous engine's prepared state lets a
	// sparse-backed slice whose Gram pattern is unchanged skip ordering
	// and symbolic analysis.
	var prev *matrix.PreparedLS
	if old != nil {
		prev = old.engine.Prepared()
	}
	eng, err := core.NewDetectorReusing(sl.H, m.opts, prev)
	if err != nil {
		return nil, sliceRefactored, nil, fmt.Errorf("churn: slice switch %d: %w", sl.Switch, err)
	}
	return eng, sliceRefactored, nil, nil
}

// rankOneRepair advances old's Gram factor (dense or sparse) to the
// new slice's by downdating removed rows and updating added ones —
// O(k·n²) dense, O(k·affected-columns) sparse — against the full
// refactor. Returns a nil engine (caller refactors) when the old
// engine has no usable factor, an update/downdate leaves the Gram
// insufficiently positive definite, or a sparse update would need fill
// outside the cached factor pattern. The repair works on a clone, so a
// failed pass poisons only the throwaway copy — the serving engine is
// untouched, and NewPreparedLSFromUpdatable additionally refuses to
// promote any poisoned factor. On success the applied rows come back
// as a SliceChange so a replica can replay the identical operations.
func (m *Manager) rankOneRepair(sl core.Slice, old *sliceMeta, removed, added []int) (*core.Detector, *SliceChange, error) {
	prep := old.engine.Prepared()
	if prep == nil || sl.H.Cols() == 0 {
		return nil, nil, nil
	}
	chol := prep.CloneFactor()
	if chol == nil {
		return nil, nil, nil
	}
	oldH := old.engine.H()
	oldPos := make(map[int]int, len(old.rows))
	for i, rid := range old.rows {
		oldPos[rid] = i
	}
	newPos := make(map[int]int, len(sl.RuleRows))
	for i, rid := range sl.RuleRows {
		newPos[rid] = i
	}
	ch := &SliceChange{}
	for _, rid := range removed {
		ch.Removed = append(ch.Removed, extractRowVec(oldH, oldPos[rid], rid))
	}
	for _, rid := range added {
		ch.Added = append(ch.Added, extractRowVec(sl.H, newPos[rid], rid))
	}
	if err := applyRowVecs(chol, sl.H.Cols(), ch.Removed, ch.Added); err != nil {
		// Degenerate or fill-inducing deltas are expected churn outcomes
		// that the refactor path absorbs; only unexpected errors propagate.
		if errors.Is(err, matrix.ErrNotPositiveDefinite) || errors.Is(err, matrix.ErrSparseUpdateFill) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	ls, err := matrix.NewPreparedLSFromUpdatable(sl.H, chol, prep.Ridge())
	if err != nil {
		return nil, nil, err
	}
	return core.NewDetectorFromPrepared(ls, m.opts), ch, nil
}

func equalUIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rowDelta diffs two ascending row-ID lists.
func rowDelta(old, new []int) (removed, added []int) {
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch {
		case old[i] == new[j]:
			i++
			j++
		case old[i] < new[j]:
			removed = append(removed, old[i])
			i++
		default:
			added = append(added, new[j])
			j++
		}
	}
	removed = append(removed, old[i:]...)
	added = append(added, new[j:]...)
	return removed, added
}

// Apply validates and applies one controller mutation batch, advancing
// the epoch: intent tables are patched, only sources whose symbolic
// trace visited a changed switch are re-traced, the FCM is reassembled
// with surviving columns in place, and per-switch engines are reused,
// rank-one-repaired or refactored as the slice structure dictates. The
// returned Update is also appended to the epoch log.
func (m *Manager) Apply(events []controller.RuleChange) (Update, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	if len(events) == 0 {
		return Update{}, fmt.Errorf("churn: empty update")
	}
	if err := m.validate(events); err != nil {
		return Update{}, err
	}
	// Decide which sources to re-trace against the pre-update state
	// (the filter reasons about old traces and old class histories).
	need := m.retraceSet(events)
	// Patch live rules and intent tables; collect changed switches.
	changed := make(map[topo.SwitchID]bool)
	for _, e := range events {
		switch e.Op {
		case controller.RuleAdded:
			m.rules[e.Rule.ID] = e.Rule
			m.space = e.Rule.ID + 1
			if err := m.tables[e.Rule.Switch].Install(e.Rule); err != nil {
				return Update{}, fmt.Errorf("churn: install rule %d: %w", e.Rule.ID, err)
			}
			changed[e.Rule.Switch] = true
		case controller.RuleRemoved:
			delete(m.rules, e.Rule.ID)
			m.retired[e.Rule.ID] = true
			if err := m.tables[e.Rule.Switch].Remove(e.Rule.ID); err != nil {
				return Update{}, fmt.Errorf("churn: remove rule %d: %w", e.Rule.ID, err)
			}
			changed[e.Rule.Switch] = true
		case controller.RuleModified:
			m.rules[e.Rule.ID] = e.Rule
			tbl := m.tables[e.Rule.Switch]
			if err := tbl.Remove(e.Rule.ID); err != nil {
				return Update{}, fmt.Errorf("churn: modify rule %d: %w", e.Rule.ID, err)
			}
			if err := tbl.Install(e.Rule); err != nil {
				return Update{}, fmt.Errorf("churn: modify rule %d: %w", e.Rule.ID, err)
			}
			changed[e.Rule.Switch] = true
		}
	}
	// Re-trace exactly the sources whose forwarding could have changed.
	firstNewUID := m.nextUID
	retraced := 0
	for _, hid := range m.hostOrder {
		if !need[hid] {
			continue
		}
		host, err := m.topol.Host(hid)
		if err != nil {
			return Update{}, err
		}
		// Withdraw this source's contributions; classes left without
		// any source are dropped unless a later re-trace revives them.
		for c := range m.srcClasses[hid] {
			delete(c.bySource, hid)
			if len(c.bySource) == 0 {
				c.dead = true
			}
		}
		delete(m.srcClasses, hid)
		nt, err := fcm.TraceSource(m.topol, m.layout, m.tables, host)
		if err != nil {
			return Update{}, err
		}
		m.mergeTrace(nt)
		retraced++
	}
	// Compact the column order: survivors keep their relative order,
	// classes born this epoch stay appended at the tail.
	affected := make(map[int]bool)
	for _, e := range events {
		affected[e.Rule.ID] = true
	}
	kept := m.order[:0]
	for _, c := range m.order {
		if c.dead {
			delete(m.classes, c.key)
			for _, rid := range c.history {
				affected[rid] = true
			}
			continue
		}
		if c.uid >= firstNewUID {
			for _, rid := range c.history {
				affected[rid] = true
			}
		}
		kept = append(kept, c)
	}
	m.order = kept
	u := Update{
		Epoch:    m.epoch + 1,
		Events:   append([]controller.RuleChange(nil), events...),
		Retraced: retraced,
	}
	for sw := range changed {
		u.ChangedSwitches = append(u.ChangedSwitches, sw)
	}
	sort.Slice(u.ChangedSwitches, func(i, j int) bool { return u.ChangedSwitches[i] < u.ChangedSwitches[j] })
	for rid := range affected {
		u.Affected = append(u.Affected, rid)
	}
	sort.Ints(u.Affected)
	if err := m.rebuild(&u); err != nil {
		return Update{}, err
	}
	m.epoch++
	u.Elapsed = time.Since(start)
	m.log.append(u)
	m.stats.Epoch = m.epoch
	m.stats.Updates++
	m.stats.Events += len(events)
	m.stats.Retraced += retraced
	m.stats.SlicesReused += u.SlicesReused
	m.stats.SlicesUpdated += u.SlicesUpdated
	m.stats.SlicesRefactored += u.SlicesRefactored
	m.stats.LastElapsed = u.Elapsed
	m.stats.TotalElapsed += u.Elapsed
	if tel := m.tel; tel != nil {
		tel.ApplySeconds.Observe(u.Elapsed.Seconds())
		tel.AffectedRows.Observe(float64(len(u.Affected)))
		tel.RetracedSources.Observe(float64(u.Retraced))
		tel.Updates.Inc()
		tel.Events.Add(uint64(len(events)))
		tel.Slices.With("reused").Add(uint64(u.SlicesReused))
		tel.Slices.With("updated").Add(uint64(u.SlicesUpdated))
		tel.Slices.With("refactored").Add(uint64(u.SlicesRefactored))
		tel.Epoch.Set(float64(m.epoch))
	}
	return u, nil
}

// validate simulates the batch against the current state so a bad
// batch is rejected atomically, before anything mutates.
func (m *Manager) validate(events []controller.RuleChange) error {
	live := make(map[int]topo.SwitchID, len(m.rules))
	for id, r := range m.rules {
		live[id] = r.Switch
	}
	space := m.space
	for i, e := range events {
		switch e.Op {
		case controller.RuleAdded:
			// The controller's allocator is monotonic and never
			// reclaims: a fresh rule must sit at or above the current
			// rule space (in particular, never on a retired ID).
			if e.Rule.ID < space {
				return fmt.Errorf("churn: event %d adds rule %d below rule space %d (IDs are never reused)", i, e.Rule.ID, space)
			}
			if _, ok := m.tables[e.Rule.Switch]; !ok {
				return fmt.Errorf("churn: event %d adds rule on unknown switch %d", i, e.Rule.Switch)
			}
			live[e.Rule.ID] = e.Rule.Switch
			space = e.Rule.ID + 1
		case controller.RuleRemoved:
			sw, ok := live[e.Rule.ID]
			if !ok {
				return fmt.Errorf("churn: event %d removes unknown rule %d", i, e.Rule.ID)
			}
			if sw != e.Rule.Switch {
				return fmt.Errorf("churn: event %d removes rule %d from switch %d, installed on %d", i, e.Rule.ID, e.Rule.Switch, sw)
			}
			delete(live, e.Rule.ID)
		case controller.RuleModified:
			sw, ok := live[e.Rule.ID]
			if !ok {
				return fmt.Errorf("churn: event %d modifies unknown rule %d", i, e.Rule.ID)
			}
			if sw != e.Rule.Switch {
				return fmt.Errorf("churn: event %d moves rule %d across switches (%d→%d); use remove+add", i, e.Rule.ID, sw, e.Rule.Switch)
			}
		default:
			return fmt.Errorf("churn: event %d has invalid op %v", i, e.Op)
		}
	}
	return nil
}

// retraceSet computes the sources whose forwarding a batch could
// possibly alter, evaluated against the pre-update traces and classes.
// The filter is sound per event:
//
//   - Removing (or modifying away from) rule r can only change traffic
//     that previously *matched* r — exactly the sources contributing to
//     a class with r in its history. Traffic of other sources at r's
//     switch either matched a higher-priority rule (unaffected) or
//     missed every rule including r (still misses them all).
//   - Adding rule r (or modifying toward a new match/priority/action)
//     can only change traffic that can reach r's switch (the old walk
//     consulted it — a source cannot newly arrive there unless some
//     other event in the batch rerouted it, and that event selects the
//     source itself) and that r's match can capture at all. Every
//     packet a source emits lies in its fcm.SourcePin space, so a match
//     disjoint from the pin provably never touches the source — this is
//     what keeps a host-pinned policy tweak from re-tracing every
//     source that merely traverses the same core switch.
//
// Re-traces then run against the fully patched tables, so multi-event
// batches converge in one pass.
func (m *Manager) retraceSet(events []controller.RuleChange) map[topo.HostID]bool {
	oldIDs := make(map[int]bool)
	var arrivals []flowtable.Rule // rules whose (new) match may capture traffic
	for _, e := range events {
		switch e.Op {
		case controller.RuleRemoved:
			oldIDs[e.Rule.ID] = true
		case controller.RuleModified:
			oldIDs[e.Rule.ID] = true
			arrivals = append(arrivals, e.Rule)
		case controller.RuleAdded:
			arrivals = append(arrivals, e.Rule)
		}
	}
	need := make(map[topo.HostID]bool)
	for _, c := range m.order {
		for _, rid := range c.history {
			if !oldIDs[rid] {
				continue
			}
			for src := range c.bySource {
				need[src] = true
			}
			break
		}
	}
	if len(arrivals) == 0 {
		return need
	}
	for _, hid := range m.hostOrder {
		if need[hid] {
			continue
		}
		tr, pin := m.traces[hid], m.pins[hid]
		for _, r := range arrivals {
			if !tr.Visited[r.Switch] {
				continue
			}
			if _, ok := pin.Intersect(r.Match); ok {
				need[hid] = true
				break
			}
		}
	}
	return need
}

// Epoch reports the current epoch (0 until the first update).
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// FCM returns the current flow-counter matrix (placeholder rows for
// retired rule IDs included).
func (m *Manager) FCM() *fcm.FCM {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fcmCur
}

// Slices returns the current per-switch slices.
func (m *Manager) Slices() []core.Slice {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.slices
}

// Sliced returns the current prepared Algorithm 2 engine.
func (m *Manager) Sliced() *core.SlicedDetector {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sliced
}

// Rules returns the live rule set, sorted by ID.
func (m *Manager) Rules() []flowtable.Rule {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveRules()
}

// RuleSpace reports the exclusive upper bound of ever-allocated rule
// IDs (the counter-vector length).
func (m *Manager) RuleSpace() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.space
}

// Full returns the prepared Algorithm 1 engine for the current epoch,
// rebuilding it lazily: the global Gram changes with nearly every flow
// update, so keeping it eagerly fresh would put an O(n³) term on every
// Apply. Detection paths that only need per-switch localization should
// prefer Sliced.
func (m *Manager) Full() (*core.Detector, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fullLocked()
}

func (m *Manager) fullLocked() (*core.Detector, error) {
	if m.fullOK && m.fullEpoch == m.epoch {
		return m.full, nil
	}
	var t0 time.Time
	if m.tel != nil {
		t0 = time.Now()
	}
	var prev *matrix.PreparedLS
	if m.full != nil {
		prev = m.full.Prepared() // reuse a matching sparse symbolic analysis
	}
	d, err := core.NewDetectorReusing(m.fcmCur.H, m.opts, prev)
	if err != nil {
		return nil, fmt.Errorf("churn: full engine: %w", err)
	}
	if m.tel != nil {
		m.tel.FullRebuildSeconds.ObserveDuration(time.Since(t0).Nanoseconds())
		stats := d.PrepareStats()
		m.tel.PrepareSeconds.With("gram").Observe(stats.Gram.Seconds())
		m.tel.PrepareSeconds.With("factor").Observe(stats.Factor.Seconds())
		if stats.Sparse {
			m.tel.PrepareSeconds.With("ordering").Observe(stats.Ordering.Seconds())
			m.tel.PrepareSeconds.With("symbolic").Observe(stats.Symbolic.Seconds())
			m.tel.PrepareSeconds.With("numeric").Observe(stats.Numeric.Seconds())
		}
	}
	if m.det != nil {
		d.SetTelemetry(m.det, core.EngineFull)
	}
	m.full = d
	m.fullEpoch = m.epoch
	m.fullOK = true
	m.stats.FullRebuilds++
	return d, nil
}

// AffectedSince returns the ascending union of rule rows changed in
// epochs (since, current]: the rows a counter window whose baseline was
// snapshotted at epoch `since` must mask.
func (m *Manager) AffectedSince(since uint64) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.AffectedRules(since, m.epoch)
}

// Updates returns a copy of the epoch log, oldest first.
func (m *Manager) Updates() []Update {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.log.Updates()
}

// Stats returns a snapshot of cumulative churn statistics.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// DetectSliced runs the prepared Algorithm 2 engine on one period's
// counter vector (length RuleSpace, indexed by rule ID).
func (m *Manager) DetectSliced(y []float64) (core.SlicedOutcome, error) {
	return m.Sliced().Detect(y)
}

// DetectReconciled runs Algorithm 2 on a counter window whose baseline
// snapshot was taken at epoch `from`: the rows changed by any update
// the window spans are masked out of the equation system (via rank-one
// downdates of the prepared factors), so a mid-window rule change is
// reconciled instead of read as a forwarding anomaly. With from equal
// to the current epoch this is exactly DetectSliced.
//
// y may be shorter than the current RuleSpace when updates since `from`
// added rules: a window captured at the old epoch has no counters for
// the new rows. Those rule IDs are necessarily in AffectedRules(from,
// epoch) and hence masked, so the vector is zero-padded to the current
// space rather than rejected.
func (m *Manager) DetectReconciled(y []float64, from uint64) (core.SlicedOutcome, error) {
	m.mu.Lock()
	sliced := m.sliced
	space := m.space
	masked := m.log.AffectedRules(from, m.epoch)
	m.mu.Unlock()
	if len(y) < space {
		padded := make([]float64, space)
		copy(padded, y)
		y = padded
	}
	return sliced.DetectMasked(y, masked, m.opts)
}

// DetectFull runs the (lazily rebuilt) Algorithm 1 engine.
func (m *Manager) DetectFull(y []float64) (core.Result, error) {
	d, err := m.Full()
	if err != nil {
		return core.Result{}, err
	}
	return d.Detect(y)
}
