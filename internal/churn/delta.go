package churn

import (
	"fmt"
	"sort"

	"foces/internal/core"
	"foces/internal/matrix"
	"foces/internal/topo"
)

// This file is the exportable delta encoding of the manager's
// incremental baseline maintenance: everything a replica (a cluster
// detector node holding a copy of some slices' engines) needs to track
// the manager's per-slice factor lifecycle bit-for-bit. The invariant
// that makes replication byte-exact is that a replica never invents its
// own numerics — it refactors the same base H the manager refactored
// and replays the same rank-one row vectors in the same order through
// the same applyRowVecs helper the manager itself uses, so the
// replica's factor is the manager's factor, not an approximation of it.

// RowVec is one sparse FCM row restricted to a slice's columns: the
// payload of a single rank-one Gram update or downdate. Cols are
// slice-local column indices (ascending); an empty RowVec (no entries)
// is still recorded because the row exists in H, but it never touches
// the factor — a zero row leaves the Gram unchanged.
type RowVec struct {
	RuleID int
	Cols   []int
	Vals   []float64
}

// SliceChange is one epoch's rank-one repair of one slice: the rows
// downdated out of and updated into the Gram factor, each in ascending
// rule-ID order (the order the manager applied them).
type SliceChange struct {
	Epoch   uint64
	Removed []RowVec
	Added   []RowVec
}

// ReplicaState is the shippable replication state of one slice: the
// base generation (the slice as it stood at the manager's last full
// refactor of it) plus every rank-one change applied since. A node that
// refactors BaseH and replays Changes in order holds an engine bitwise
// identical to the manager's serving engine for the slice. BaseEpoch
// resets — and Changes empties — whenever the manager refactors the
// slice, which is exactly the full-snapshot fallback: joins and
// fill-rejected deltas are served the current base, not a replay of
// history from epoch zero.
type ReplicaState struct {
	Switch    topo.SwitchID
	BaseEpoch uint64
	BaseRows  []int // global rule IDs, ascending
	BaseH     *matrix.CSR
	Changes   []SliceChange
}

// extractRowVec reads row i of h as a RowVec tagged with global rule
// ID rid.
func extractRowVec(h *matrix.CSR, i, rid int) RowVec {
	rv := RowVec{RuleID: rid}
	h.RowEntries(i, func(col int, v float64) {
		rv.Cols = append(rv.Cols, col)
		rv.Vals = append(rv.Vals, v)
	})
	return rv
}

// applyRowVecs advances a cloned Gram factor by one change: downdate
// every removed row, then update every added one, skipping empty rows.
// The manager's rank-one repair and a replica's replay both funnel
// through this function, so the two sides' factors agree bitwise by
// construction. Errors (including ErrNotPositiveDefinite and
// ErrSparseUpdateFill) propagate; the caller decides whether they mean
// "refactor instead" or "resync the replica".
func applyRowVecs(chol *matrix.SparseCholesky, cols int, removed, added []RowVec) error {
	row := make([]float64, cols)
	scatter := func(rv RowVec) {
		for j := range row {
			row[j] = 0
		}
		for k, c := range rv.Cols {
			row[c] = rv.Vals[k]
		}
	}
	for _, rv := range removed {
		if len(rv.Cols) == 0 {
			continue
		}
		scatter(rv)
		if err := chol.Downdate(row); err != nil {
			return err
		}
	}
	for _, rv := range added {
		if len(rv.Cols) == 0 {
			continue
		}
		scatter(rv)
		if err := chol.Update(row); err != nil {
			return err
		}
	}
	return nil
}

// applyChangeH performs the row surgery a SliceChange describes on a
// slice's H: removed rule IDs drop out, added RowVecs splice in, and
// the surviving rows keep their values — all in ascending rule-ID
// order, which is the order Slice.RuleRows (and hence slice H rows)
// always carries. Valid only on the rank-one path, where the slice's
// columns are unchanged by construction.
func applyChangeH(oldH *matrix.CSR, oldRows []int, ch SliceChange) (*matrix.CSR, []int, error) {
	removed := make(map[int]bool, len(ch.Removed))
	for _, rv := range ch.Removed {
		removed[rv.RuleID] = true
	}
	addedByID := make(map[int]RowVec, len(ch.Added))
	newRows := make([]int, 0, len(oldRows)+len(ch.Added))
	for _, rv := range ch.Added {
		addedByID[rv.RuleID] = rv
		newRows = append(newRows, rv.RuleID)
	}
	oldPos := make(map[int]int, len(oldRows))
	for i, rid := range oldRows {
		oldPos[rid] = i
		if !removed[rid] {
			newRows = append(newRows, rid)
		}
	}
	sort.Ints(newRows)
	var entries []matrix.Triplet
	for i, rid := range newRows {
		if rv, ok := addedByID[rid]; ok {
			for k, c := range rv.Cols {
				entries = append(entries, matrix.Triplet{Row: i, Col: c, Val: rv.Vals[k]})
			}
			continue
		}
		oi, ok := oldPos[rid]
		if !ok {
			return nil, nil, fmt.Errorf("churn: replica change references unknown rule %d", rid)
		}
		oldH.RowEntries(oi, func(col int, v float64) {
			entries = append(entries, matrix.Triplet{Row: i, Col: col, Val: v})
		})
	}
	h, err := matrix.NewCSR(len(newRows), oldH.Cols(), entries)
	if err != nil {
		return nil, nil, fmt.Errorf("churn: replica row surgery: %w", err)
	}
	return h, newRows, nil
}

// ReplayChange advances a replicated slice engine by one recorded
// change: row surgery on H, then the same clone-and-apply factor pass
// the manager ran. It returns the new engine and its (ascending) rule
// rows. An error means the replica cannot track incrementally — e.g. a
// sparse update needs fill the cached pattern lacks — and the caller
// should fall back to a fresh base snapshot.
func ReplayChange(eng *core.Detector, rows []int, ch SliceChange, opts core.Options) (*core.Detector, []int, error) {
	newH, newRows, err := applyChangeH(eng.H(), rows, ch)
	if err != nil {
		return nil, nil, err
	}
	prep := eng.Prepared()
	if prep == nil {
		return nil, nil, fmt.Errorf("churn: replica engine has no prepared factor")
	}
	chol := prep.CloneFactor()
	if chol == nil {
		return nil, nil, fmt.Errorf("churn: replica engine factor is not clonable")
	}
	if err := applyRowVecs(chol, newH.Cols(), ch.Removed, ch.Added); err != nil {
		return nil, nil, fmt.Errorf("churn: replica rank-one replay: %w", err)
	}
	ls, err := matrix.NewPreparedLSFromUpdatable(newH, chol, prep.Ridge())
	if err != nil {
		return nil, nil, err
	}
	return core.NewDetectorFromPrepared(ls, opts), newRows, nil
}

// ReplayReplica rebuilds a slice engine from a replica state:
// refactor the base H, then replay every recorded change in order —
// the manager's exact factor lifecycle, so the result is bitwise
// identical to the manager's serving engine for the slice.
func ReplayReplica(rs *ReplicaState, opts core.Options) (*core.Detector, []int, error) {
	eng, err := core.NewDetectorReusing(rs.BaseH, opts, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("churn: replica base refactor: %w", err)
	}
	rows := rs.BaseRows
	for _, ch := range rs.Changes {
		eng, rows, err = ReplayChange(eng, rows, ch, opts)
		if err != nil {
			return nil, nil, err
		}
	}
	return eng, rows, nil
}

// ReplicaStates snapshots the manager's per-slice replication state,
// one entry per current slice. The returned states share the immutable
// base matrices and row vectors with the manager but own their slice
// headers, so callers may hold them across future updates.
func (m *Manager) ReplicaStates() map[topo.SwitchID]*ReplicaState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[topo.SwitchID]*ReplicaState, len(m.replica))
	for sw, rs := range m.replica {
		out[sw] = &ReplicaState{
			Switch:    rs.Switch,
			BaseEpoch: rs.BaseEpoch,
			BaseRows:  rs.BaseRows,
			BaseH:     rs.BaseH,
			Changes:   append([]SliceChange(nil), rs.Changes...),
		}
	}
	return out
}
