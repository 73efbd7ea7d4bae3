// Package flowtable implements the OpenFlow-style switch data plane:
// priority flow tables whose rules carry match fields, actions and
// packet counters, plus the compromised-switch behaviours of the FOCES
// threat model (§II-B): silently rewriting a rule's output port,
// dropping matched packets, detouring, and lying when the controller
// dumps the table.
//
// Counters follow OpenFlow semantics: a rule's counter increments when a
// packet matches it, regardless of what the (possibly tampered) action
// then does. This is exactly why a compromised switch's own counters
// stay plausible while downstream counters betray the anomaly.
package flowtable

import (
	"fmt"
	"sort"
	"sync"

	"foces/internal/header"
	"foces/internal/topo"
)

// ActionType enumerates forwarding actions.
type ActionType int

// Supported actions.
const (
	ActionOutput  ActionType = iota + 1 // forward out of Port
	ActionDrop                          // discard the packet
	ActionDeliver                       // hand to the locally attached host
)

// Action is one forwarding action.
type Action struct {
	Type ActionType
	Port int // valid for ActionOutput and ActionDeliver
}

func (a Action) String() string {
	switch a.Type {
	case ActionOutput:
		return fmt.Sprintf("output:%d", a.Port)
	case ActionDrop:
		return "drop"
	case ActionDeliver:
		return fmt.Sprintf("deliver:%d", a.Port)
	default:
		return "invalid"
	}
}

// Rule is one flow-table entry. ID is a controller-assigned global rule
// index (dense across the whole network) so rules map directly to FCM
// rows.
type Rule struct {
	ID       int
	Switch   topo.SwitchID
	Priority int
	Match    header.Space
	Action   Action
}

// Override is an adversarial modification applied by a compromised
// switch to one of its rules. It affects forwarding only: table dumps
// and counters keep reporting the original, innocent-looking state.
type Override struct {
	Action Action
}

// Table is a single switch's flow table. It is safe for concurrent use.
type Table struct {
	mu        sync.RWMutex
	sw        topo.SwitchID
	rules     []*Rule // sorted by priority desc, then ID asc
	byID      map[int]*Rule
	counters  map[int]uint64
	overrides map[int]Override
	// spoofed holds adversarial counter values reported instead of the
	// real ones (§II-B: the adversary "can modify the counters of rules
	// at compromised switches, so as to pretend to have correctly
	// forwarded packets").
	spoofed map[int]uint64
}

// NewTable returns an empty table for the given switch.
func NewTable(sw topo.SwitchID) *Table {
	return &Table{
		sw:        sw,
		byID:      make(map[int]*Rule),
		counters:  make(map[int]uint64),
		overrides: make(map[int]Override),
		spoofed:   make(map[int]uint64),
	}
}

// Switch reports the owning switch.
func (t *Table) Switch() topo.SwitchID { return t.sw }

// Len reports the number of installed rules.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rules)
}

// Install adds a rule. Rule IDs must be unique per network; matches must
// be valid header spaces.
func (t *Table) Install(r Rule) error {
	if !r.Match.Valid() {
		return fmt.Errorf("flowtable: rule %d has invalid match", r.ID)
	}
	if r.Action.Type < ActionOutput || r.Action.Type > ActionDeliver {
		return fmt.Errorf("flowtable: rule %d has invalid action", r.ID)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.byID[r.ID]; dup {
		return fmt.Errorf("flowtable: duplicate rule id %d on switch %d", r.ID, t.sw)
	}
	r.Switch = t.sw
	rp := &r
	t.byID[r.ID] = rp
	t.rules = append(t.rules, rp)
	t.sortLocked()
	return nil
}

// Modify rewrites an installed rule's match, action and priority in
// place, as an OpenFlow modify does: the packet counter carries on
// across the change, while any override or spoofed counter on the old
// rule is cleared.
func (t *Table) Modify(r Rule) error {
	if !r.Match.Valid() {
		return fmt.Errorf("flowtable: rule %d has invalid match", r.ID)
	}
	if r.Action.Type < ActionOutput || r.Action.Type > ActionDeliver {
		return fmt.Errorf("flowtable: rule %d has invalid action", r.ID)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rp, ok := t.byID[r.ID]
	if !ok {
		return fmt.Errorf("flowtable: no rule %d on switch %d", r.ID, t.sw)
	}
	r.Switch = t.sw
	*rp = r
	delete(t.overrides, r.ID)
	delete(t.spoofed, r.ID)
	t.sortLocked()
	return nil
}

// sortLocked restores lookup order: priority descending, then ID
// ascending. Caller holds t.mu.
func (t *Table) sortLocked() {
	sort.SliceStable(t.rules, func(i, j int) bool {
		if t.rules[i].Priority != t.rules[j].Priority {
			return t.rules[i].Priority > t.rules[j].Priority
		}
		return t.rules[i].ID < t.rules[j].ID
	})
}

// Remove deletes a rule by ID. The table itself would accept a later
// Install reusing the ID, but the controller's allocator never reclaims
// one: a removed rule ID stays retired forever, so epoch logs, FCM rows
// and counter vectors can key on rule ID without ABA confusion (see
// controller.Controller.RuleSpace).
func (t *Table) Remove(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; !ok {
		return fmt.Errorf("flowtable: no rule %d on switch %d", id, t.sw)
	}
	delete(t.byID, id)
	delete(t.counters, id)
	delete(t.overrides, id)
	delete(t.spoofed, id)
	for i, r := range t.rules {
		if r.ID == id {
			t.rules = append(t.rules[:i], t.rules[i+1:]...)
			break
		}
	}
	return nil
}

// Rule returns a copy of the rule with the given ID.
func (t *Table) Rule(id int) (Rule, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	r, ok := t.byID[id]
	if !ok {
		return Rule{}, false
	}
	return *r, true
}

// Lookup returns the highest-priority rule matching the packet and the
// action the switch will actually take (the override, if any). ok is
// false on table miss.
func (t *Table) Lookup(p header.Packet) (r Rule, act Action, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, cand := range t.rules {
		if cand.Match.MatchesPacket(p) {
			act := cand.Action
			if ov, tampered := t.overrides[cand.ID]; tampered {
				act = ov.Action
			}
			return *cand, act, true
		}
	}
	return Rule{}, Action{}, false
}

// Count adds n matched packets to rule id's counter. Unknown IDs are
// ignored (a rule may have been removed between match and count in a
// live switch).
func (t *Table) Count(id int, n uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; ok {
		t.counters[id] += n
	}
}

// Counters returns a snapshot of rule counters keyed by rule ID, as
// the switch *reports* them: spoofed values take precedence over real
// ones on a compromised switch.
func (t *Table) Counters() map[int]uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[int]uint64, len(t.counters))
	for id := range t.byID {
		out[id] = t.reportedLocked(id)
	}
	return out
}

// EachCounter calls fn once per installed rule, in no particular order,
// with the counter Counters reports for it, without building the map.
// fn runs under the table's read lock: it must not call back into the
// table, and packets counted meanwhile wait for the walk to finish.
func (t *Table) EachCounter(fn func(id int, packets uint64)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for id := range t.byID {
		fn(id, t.reportedLocked(id))
	}
}

// reportedLocked is the counter the switch reports for an installed
// rule: the spoofed value on a lying switch, the real one otherwise.
// Caller holds t.mu.
func (t *Table) reportedLocked(id int) uint64 {
	if v, lied := t.spoofed[id]; lied {
		return v
	}
	return t.counters[id]
}

// TrueCounters returns the real match counts, bypassing spoofing (test
// and simulation introspection only — a real controller cannot call
// this).
func (t *Table) TrueCounters() map[int]uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[int]uint64, len(t.counters))
	for id := range t.byID {
		out[id] = t.counters[id]
	}
	return out
}

// SpoofCounter makes the table report value for rule id regardless of
// the real match count.
func (t *Table) SpoofCounter(id int, value uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; !ok {
		return fmt.Errorf("flowtable: no rule %d on switch %d", id, t.sw)
	}
	t.spoofed[id] = value
	return nil
}

// ClearSpoofedCounters stops all counter lying on the table.
func (t *Table) ClearSpoofedCounters() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range t.spoofed {
		delete(t.spoofed, id)
	}
}

// ResetCounters zeroes all counters (start of a collection window).
func (t *Table) ResetCounters() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range t.counters {
		delete(t.counters, id)
	}
}

// Dump returns the rules as the switch *reports* them: the original
// rules, never the overrides, reflecting the adversary's ability to lie
// to the controller (§II-B).
func (t *Table) Dump() []Rule {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Rule, len(t.rules))
	for i, r := range t.rules {
		out[i] = *r
	}
	return out
}

// SetOverride installs an adversarial action override on a rule.
func (t *Table) SetOverride(id int, ov Override) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; !ok {
		return fmt.Errorf("flowtable: no rule %d on switch %d", id, t.sw)
	}
	t.overrides[id] = ov
	return nil
}

// ClearOverride removes an adversarial override ("repairing" the rule).
func (t *Table) ClearOverride(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.overrides, id)
}

// ClearAllOverrides removes every override on the table.
func (t *Table) ClearAllOverrides() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range t.overrides {
		delete(t.overrides, id)
	}
}

// Overridden reports whether rule id currently has an override.
func (t *Table) Overridden(id int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.overrides[id]
	return ok
}

// OverriddenIDs returns the IDs of overridden rules in ascending order.
func (t *Table) OverriddenIDs() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]int, 0, len(t.overrides))
	for id := range t.overrides {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// SymbolicMatch pairs a rule with the sub-space of an injected symbolic
// header that reaches it after higher-priority rules carve their share.
type SymbolicMatch struct {
	Rule  Rule
	Space header.Space
}

// SymbolicMatches propagates a symbolic header through the table in
// priority order. Each returned entry holds a rule and the disjoint
// portion of the input space that the rule would match, exactly as in
// ATPG's all-reachability computation.
func (t *Table) SymbolicMatches(s header.Space) []SymbolicMatch {
	out, _ := t.SymbolicMatchesWithRemainder(s)
	return out
}

// SymbolicMatchesWithRemainder is SymbolicMatches plus the unmatched
// remainder: the (possibly empty) disjoint pieces of the input space no
// rule matches, which the switch would drop table-miss. Under an
// incomplete rule set — e.g. after a mid-path rule removal — traffic in
// the remainder still incremented every earlier hop's counters, so FCM
// generation must account for these deaths rather than ignore them.
//
// Cost model: only rules overlapping s are candidates (every remainder
// piece lies inside s, so a rule disjoint from s is disjoint from all of
// them), and a candidate is tested against the pieces it can reach, not
// against the whole remainder: a carved piece keeps its place and its
// sub-pieces hang below it, so a rule that misses the piece skips them
// all. The cost is candidates × pieces they split (times the carve
// depth, at most the header width), not rules × pieces.
func (t *Table) SymbolicMatchesWithRemainder(s header.Space) ([]SymbolicMatch, []header.Space) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := carving{spaces: []header.Space{s}, carved: []pieceRange{{}}, leaves: 1}
	var out []SymbolicMatch
	for _, r := range t.rules {
		if c.leaves == 0 {
			break
		}
		if r.Match.Overlaps(s) {
			out = c.carve(0, r, out)
		}
	}
	return out, c.remainder(0, make([]header.Space, 0, c.leaves))
}

// carving is the remainder of a symbolic header while a table carves
// it: a tree whose root is the injected space and whose leaves, left to
// right, are the remainder pieces — the list a flat carve would keep,
// in the same order. A piece a rule hits becomes an inner node over the
// pieces of piece \ rule.
type carving struct {
	spaces []header.Space // spaces[0] is the root; a carve appends its pieces
	carved []pieceRange   // per space: zero while it is a leaf
	leaves int
}

// pieceRange locates a carved space's sub-pieces in carving.spaces.
// lo > 0 marks the space carved (hi == lo when the rule covered it).
type pieceRange struct{ lo, hi int32 }

// carve matches r against the remainder below piece i, appending one
// match per leaf hit, in leaf order.
func (c *carving) carve(i int, r *Rule, out []SymbolicMatch) []SymbolicMatch {
	if !c.spaces[i].Overlaps(r.Match) {
		return out
	}
	if sub := c.carved[i]; sub.lo > 0 {
		for k := sub.lo; k < sub.hi; k++ {
			out = c.carve(int(k), r, out)
		}
		return out
	}
	hit, _ := c.spaces[i].Intersect(r.Match)
	out = append(out, SymbolicMatch{Rule: *r, Space: hit})
	lo := len(c.spaces)
	c.spaces = header.AppendSubtract(c.spaces, c.spaces[i], r.Match)
	c.carved[i] = pieceRange{int32(lo), int32(len(c.spaces))}
	c.carved = append(c.carved, make([]pieceRange, len(c.spaces)-lo)...)
	c.leaves += len(c.spaces) - lo - 1
	return out
}

// remainder appends the leaves below piece i to dst, left to right.
func (c *carving) remainder(i int, dst []header.Space) []header.Space {
	sub := c.carved[i]
	if sub.lo == 0 {
		return append(dst, c.spaces[i])
	}
	for k := sub.lo; k < sub.hi; k++ {
		dst = c.remainder(int(k), dst)
	}
	return dst
}
