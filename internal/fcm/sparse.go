package fcm

import (
	"encoding/binary"
	"fmt"
	"slices"

	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/matrix"
	"foces/internal/topo"
)

// This file holds the decomposed FCM pipeline used by the churn
// subsystem: per-source symbolic tracing (TraceSource), assembly from
// externally maintained flow classes (Assemble), and generation over a
// rule set whose IDs have holes (GenerateSparse). The classic Generate
// is the dense-ID composition of these pieces, so the incremental and
// cold paths share one tracer and cannot drift apart.

// TraceRecord is one terminated symbolic class discovered while tracing
// a single source host: the rule history in path order, the delivery
// host (−1 for drops), and a representative header space.
type TraceRecord struct {
	History []int
	Dst     topo.HostID
	Space   header.Space
}

// SourceTrace is the all-reachability result for one source host.
// Visited lists every switch whose flow table the walk consulted —
// including switches where part of the header space died unmatched — so
// a rule change on a switch outside Visited provably cannot alter this
// source's records. The churn subsystem re-traces exactly the sources
// whose Visited set intersects the changed switches.
type SourceTrace struct {
	Src     topo.HostID
	Records []TraceRecord
	Visited map[topo.SwitchID]bool
}

// BuildTables constructs per-switch intent flow tables for a rule set.
func BuildTables(t *topo.Topology, rules []flowtable.Rule) (map[topo.SwitchID]*flowtable.Table, error) {
	tables := make(map[topo.SwitchID]*flowtable.Table, t.NumSwitches())
	for _, s := range t.Switches() {
		tables[s.ID] = flowtable.NewTable(s.ID)
	}
	for _, r := range rules {
		tbl, ok := tables[r.Switch]
		if !ok {
			return nil, fmt.Errorf("fcm: rule %d on unknown switch %d", r.ID, r.Switch)
		}
		if err := tbl.Install(r); err != nil {
			return nil, fmt.Errorf("fcm: intent table: %w", err)
		}
	}
	return tables, nil
}

// SourcePin is the symbolic header space a source trace injects: the
// full wildcard with src_ip pinned to the host's address. Every packet
// host h can ever emit lies inside this space, so a rule whose match is
// disjoint from SourcePin(h) provably never touches h's traffic — the
// churn subsystem uses exactly this to skip re-tracing sources an
// added or modified rule cannot affect.
func SourcePin(layout *header.Layout, h *topo.Host) (header.Space, error) {
	return layout.MatchExact(layout.Wildcard(), header.FieldSrcIP, h.IP)
}

// TraceSource injects a symbolic header with src_ip pinned to host h's
// address at h's terminal port and propagates it through the intent
// tables, returning the terminated classes in discovery order, one per
// (history, destination): a class reached again through another piece
// of a carved remainder is the same traffic, not a second pair. Records
// are not merged into logical flows here; callers group them by
// HistoryKey (Generate and the churn manager do so identically).
func TraceSource(t *topo.Topology, layout *header.Layout, tables map[topo.SwitchID]*flowtable.Table, h *topo.Host) (*SourceTrace, error) {
	space, err := SourcePin(layout, h)
	if err != nil {
		return nil, err
	}
	w := &symWalker{
		topol:  t,
		tables: tables,
		src:    h,
		trace:  &SourceTrace{Src: h.ID, Visited: make(map[topo.SwitchID]bool)},
		seen:   make(map[string]struct{}),
	}
	if err := w.walk(h.Attach, space, 0); err != nil {
		return nil, err
	}
	return w.trace, nil
}

// TraceSources is TraceSource for each of hosts. The walks share
// nothing but the read-only tables, so they fan out across GOMAXPROCS
// workers; traces come back in the order of hosts, and a caller merging
// them in that order gets the classes — and FCM columns — of a
// one-by-one pass.
func TraceSources(t *topo.Topology, layout *header.Layout, tables map[topo.SwitchID]*flowtable.Table, hosts []*topo.Host) ([]*SourceTrace, error) {
	traces := make([]*SourceTrace, len(hosts))
	errs := make([]error, len(hosts))
	matrix.FanOut(len(hosts), func(i int) {
		traces[i], errs[i] = TraceSource(t, layout, tables, hosts[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return traces, nil
}

type symWalker struct {
	topol  *topo.Topology
	tables map[topo.SwitchID]*flowtable.Table
	src    *topo.Host
	trace  *SourceTrace
	// hist is the rule history of the class being walked: one stack for
	// the whole trace, copied only when a class terminates in a record.
	hist []int
	// seen holds the (destination, history) of every record so far; key
	// is the scratch its lookups are spelled in.
	seen map[string]struct{}
	key  []byte
}

// walk recursively propagates one symbolic class whose history so far
// is w.hist.
func (w *symWalker) walk(sw topo.SwitchID, space header.Space, hops int) error {
	if hops > maxSymbolicHops {
		return fmt.Errorf("fcm: symbolic loop detected from host %q (history %v)", w.src.Name, w.hist)
	}
	w.trace.Visited[sw] = true
	tbl := w.tables[sw]
	matches, remainder := tbl.SymbolicMatchesWithRemainder(space)
	// Part of the class no rule matches dies table-miss here — but it
	// already incremented every earlier hop's counters, so it must exist
	// as a truncated-path class or detection reads those counters as an
	// anomaly. (With an empty history no counter ever saw the traffic,
	// and a rule-less class would add a zero FCM column; skip it.)
	if len(remainder) > 0 && len(w.hist) > 0 {
		// Cloned: a carved piece shares its backing array with its
		// siblings, and a record's space lives as long as the FCM.
		w.record(-1, remainder[0].Clone())
	}
	depth := len(w.hist)
	for _, m := range matches {
		w.hist = append(w.hist[:depth], m.Rule.ID)
		switch m.Rule.Action.Type {
		case flowtable.ActionDrop:
			w.record(-1, m.Space)
		case flowtable.ActionDeliver:
			peer, err := w.topol.PeerAt(sw, m.Rule.Action.Port)
			if err != nil {
				return fmt.Errorf("fcm: rule %d delivery port: %w", m.Rule.ID, err)
			}
			if peer.Kind != topo.PeerHost {
				return fmt.Errorf("fcm: rule %d delivers to non-host port", m.Rule.ID)
			}
			if peer.Host == w.src.ID {
				continue // self flow: no traffic ever rides it
			}
			w.record(peer.Host, m.Space)
		case flowtable.ActionOutput:
			peer, err := w.topol.PeerAt(sw, m.Rule.Action.Port)
			if err != nil {
				return fmt.Errorf("fcm: rule %d output port: %w", m.Rule.ID, err)
			}
			switch peer.Kind {
			case topo.PeerSwitch:
				if err := w.walk(peer.Switch, m.Space, hops+1); err != nil {
					return err
				}
			case topo.PeerHost:
				if peer.Host != w.src.ID {
					w.record(peer.Host, m.Space)
				}
			default:
				w.record(-1, m.Space)
			}
		}
	}
	w.hist = w.hist[:depth]
	return nil
}

// record terminates the class being walked at dst, unless this source
// already has a record with the same history and destination: a lower-
// priority rule reached through several remainder pieces is walked once
// per piece, and every walk ends in the same class. The first
// discovery's space is the one kept.
func (w *symWalker) record(dst topo.HostID, space header.Space) {
	w.key = binary.AppendVarint(w.key[:0], int64(dst))
	for _, id := range w.hist {
		w.key = binary.AppendVarint(w.key, int64(id))
	}
	if _, dup := w.seen[string(w.key)]; dup {
		return
	}
	w.seen[string(w.key)] = struct{}{}
	w.trace.Records = append(w.trace.Records, TraceRecord{History: slices.Clone(w.hist), Dst: dst, Space: space})
}

// HistoryKey canonicalizes a rule history as an order-insensitive set
// key; records with equal keys belong to the same logical flow.
func HistoryKey(history []int) string { return historyKey(history) }

// DenseRows spreads a rule set whose IDs may have holes over the row
// space [0, space): row i is the rule with ID i, and IDs absent from
// rules become placeholder rows (Switch −1) that no flow may reference;
// they read as expected zero counters in detection, which keeps row
// indexing stable across rule removals (the controller never reclaims
// IDs).
func DenseRows(rules []flowtable.Rule, space int) ([]flowtable.Rule, error) {
	rows := make([]flowtable.Rule, space)
	for i := range rows {
		rows[i] = flowtable.Rule{ID: i, Switch: -1}
	}
	for _, r := range rules {
		if r.ID < 0 || r.ID >= space {
			return nil, fmt.Errorf("fcm: rule ID %d outside row space [0,%d)", r.ID, space)
		}
		if rows[r.ID].Switch >= 0 {
			return nil, fmt.Errorf("fcm: duplicate rule ID %d", r.ID)
		}
		rows[r.ID] = r
	}
	return rows, nil
}

// Assemble builds an FCM over the dense row array rows (see DenseRows;
// the FCM keeps it) from externally maintained logical flows. Flow IDs
// are reassigned to column indices in the given order. h, when non-nil,
// is the matrix of a previous generation carried over: the caller
// vouches that it has len(rows) rows and that flows are, history for
// history and in order, the ones it was assembled from.
func Assemble(t *topo.Topology, layout *header.Layout, rows []flowtable.Rule, flows []*Flow, h *matrix.CSR) (*FCM, error) {
	for j, f := range flows {
		f.ID = j
	}
	if h == nil {
		var entries []matrix.Triplet
		for j, f := range flows {
			for i, rid := range f.RuleIDs {
				if rid < 0 || rid >= len(rows) {
					return nil, fmt.Errorf("fcm: flow %d references rule %d outside row space [0,%d)", j, rid, len(rows))
				}
				// A looping history revisits a rule; H is 0/1.
				if !slices.Contains(f.RuleIDs[:i], rid) {
					entries = append(entries, matrix.Triplet{Row: rid, Col: j, Val: 1})
				}
			}
		}
		var err error
		if h, err = matrix.NewCSR(len(rows), len(flows), entries); err != nil {
			return nil, fmt.Errorf("fcm: assemble: %w", err)
		}
	}
	return &FCM{H: h, Flows: flows, Rules: rows, topol: t, layout: layout}, nil
}

// GenerateSparse computes the FCM for a rule set whose IDs need not be
// dense: rows span [0, space) and absent IDs become placeholder rows.
// With dense IDs and space == len(rules) it is exactly Generate.
func GenerateSparse(t *topo.Topology, layout *header.Layout, rules []flowtable.Rule, space int) (*FCM, error) {
	rows, err := DenseRows(rules, space)
	if err != nil {
		return nil, err
	}
	tables, err := BuildTables(t, rules)
	if err != nil {
		return nil, err
	}
	traces, err := TraceSources(t, layout, tables, t.Hosts())
	if err != nil {
		return nil, err
	}
	classes := make(map[string]*Flow)
	var order []*Flow
	for _, tr := range traces {
		// Deterministic column order: first discovery order.
		for _, rec := range tr.Records {
			key := historyKey(rec.History)
			if f, ok := classes[key]; ok {
				f.Pairs = append(f.Pairs, Pair{Src: tr.Src, Dst: rec.Dst})
				continue
			}
			f := &Flow{
				RuleIDs: rec.History,
				Pairs:   []Pair{{Src: tr.Src, Dst: rec.Dst}},
				Space:   rec.Space,
			}
			classes[key] = f
			order = append(order, f)
		}
	}
	return Assemble(t, layout, rows, order, nil)
}

// RuleSpace reports the FCM's row-ID space (number of H rows, including
// placeholder rows for removed rules).
func (f *FCM) RuleSpace() int { return len(f.Rules) }

// IsPlaceholder reports whether row id is a placeholder for a removed
// (or never-installed) rule ID.
func (f *FCM) IsPlaceholder(id int) bool {
	return id >= 0 && id < len(f.Rules) && f.Rules[id].Switch < 0
}

// Layout returns the header layout the FCM was generated over (nil for
// FromHistories FCMs).
func (f *FCM) Layout() *header.Layout { return f.layout }
