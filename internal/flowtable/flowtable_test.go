package flowtable

import (
	"sync"
	"testing"

	"foces/internal/header"
)

var layout = header.FiveTuple()

func dstRule(t *testing.T, id, prio int, ip uint64, act Action) Rule {
	t.Helper()
	m, err := layout.MatchExact(layout.Wildcard(), header.FieldDstIP, ip)
	if err != nil {
		t.Fatal(err)
	}
	return Rule{ID: id, Priority: prio, Match: m, Action: act}
}

func packetTo(t *testing.T, ip uint64) header.Packet {
	t.Helper()
	p, err := layout.PacketWithField(header.NewPacket(layout.Width()), header.FieldDstIP, ip)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInstallLookupCount(t *testing.T) {
	tbl := NewTable(3)
	ip := header.IPv4(10, 0, 0, 1)
	if err := tbl.Install(dstRule(t, 7, 10, ip, Action{Type: ActionOutput, Port: 2})); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 || tbl.Switch() != 3 {
		t.Fatalf("len=%d sw=%d", tbl.Len(), tbl.Switch())
	}
	r, act, ok := tbl.Lookup(packetTo(t, ip))
	if !ok || r.ID != 7 || act.Type != ActionOutput || act.Port != 2 {
		t.Fatalf("lookup = %+v %+v %v", r, act, ok)
	}
	if r.Switch != 3 {
		t.Fatalf("rule switch not stamped: %d", r.Switch)
	}
	if _, _, ok := tbl.Lookup(packetTo(t, header.IPv4(10, 0, 0, 2))); ok {
		t.Fatal("miss expected for other dst")
	}
	tbl.Count(7, 5)
	tbl.Count(7, 3)
	tbl.Count(99, 1) // unknown, ignored
	c := tbl.Counters()
	if c[7] != 8 {
		t.Fatalf("counter = %d", c[7])
	}
	if _, ok := c[99]; ok {
		t.Fatal("unknown rule must not appear in counters")
	}
	tbl.ResetCounters()
	if tbl.Counters()[7] != 0 {
		t.Fatal("reset failed")
	}
}

func TestInstallValidation(t *testing.T) {
	tbl := NewTable(0)
	if err := tbl.Install(Rule{ID: 1}); err == nil {
		t.Fatal("invalid match must error")
	}
	good := dstRule(t, 1, 1, header.IPv4(10, 0, 0, 1), Action{Type: ActionOutput})
	if err := tbl.Install(good); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install(good); err == nil {
		t.Fatal("duplicate ID must error")
	}
	bad := good
	bad.ID = 2
	bad.Action = Action{}
	if err := tbl.Install(bad); err == nil {
		t.Fatal("invalid action must error")
	}
}

func TestPriorityOrder(t *testing.T) {
	tbl := NewTable(0)
	ip := header.IPv4(10, 0, 0, 1)
	low, err := layout.MatchPrefix(layout.Wildcard(), header.FieldDstIP, header.IPv4(10, 0, 0, 0), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install(Rule{ID: 1, Priority: 1, Match: low, Action: Action{Type: ActionOutput, Port: 9}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install(dstRule(t, 2, 100, ip, Action{Type: ActionOutput, Port: 4})); err != nil {
		t.Fatal(err)
	}
	r, _, ok := tbl.Lookup(packetTo(t, ip))
	if !ok || r.ID != 2 {
		t.Fatalf("priority lookup picked rule %d", r.ID)
	}
	// A packet in the /8 but not the /32 falls to the low-priority rule.
	r, _, ok = tbl.Lookup(packetTo(t, header.IPv4(10, 9, 9, 9)))
	if !ok || r.ID != 1 {
		t.Fatalf("fallback lookup picked rule %d ok=%v", r.ID, ok)
	}
}

func TestEqualPriorityTieBreaksByID(t *testing.T) {
	tbl := NewTable(0)
	ip := header.IPv4(10, 0, 0, 1)
	if err := tbl.Install(dstRule(t, 5, 10, ip, Action{Type: ActionOutput, Port: 1})); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install(dstRule(t, 2, 10, ip, Action{Type: ActionOutput, Port: 2})); err != nil {
		t.Fatal(err)
	}
	r, _, _ := tbl.Lookup(packetTo(t, ip))
	if r.ID != 2 {
		t.Fatalf("tie-break picked %d, want 2", r.ID)
	}
}

func TestRemove(t *testing.T) {
	tbl := NewTable(0)
	ip := header.IPv4(10, 0, 0, 1)
	if err := tbl.Install(dstRule(t, 1, 1, ip, Action{Type: ActionOutput})); err != nil {
		t.Fatal(err)
	}
	tbl.Count(1, 3)
	if err := tbl.SetOverride(1, Override{Action: Action{Type: ActionDrop}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Remove(1); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 || len(tbl.Counters()) != 0 || tbl.Overridden(1) {
		t.Fatal("remove must clear rule, counter and override")
	}
	if err := tbl.Remove(1); err == nil {
		t.Fatal("double remove must error")
	}
}

func TestModifyKeepsCounter(t *testing.T) {
	tbl := NewTable(0)
	ip := header.IPv4(10, 0, 0, 1)
	if err := tbl.Install(dstRule(t, 1, 5, ip, Action{Type: ActionOutput, Port: 1})); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install(dstRule(t, 2, 3, ip, Action{Type: ActionOutput, Port: 2})); err != nil {
		t.Fatal(err)
	}
	tbl.Count(2, 7)
	if err := tbl.SetOverride(2, Override{Action: Action{Type: ActionDrop}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SpoofCounter(2, 99); err != nil {
		t.Fatal(err)
	}
	// Rule 2 rises above rule 1 and changes its action, in place.
	if err := tbl.Modify(dstRule(t, 2, 9, ip, Action{Type: ActionOutput, Port: 4})); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Counters()[2]; got != 7 {
		t.Fatalf("counter after modify = %d, want 7", got)
	}
	if tbl.Overridden(2) {
		t.Fatal("modify must clear the override")
	}
	r, act, ok := tbl.Lookup(packetTo(t, ip))
	if !ok || r.ID != 2 || act.Port != 4 {
		t.Fatalf("lookup after modify = rule %d %+v, want rule 2 output:4", r.ID, act)
	}
	if err := tbl.Modify(dstRule(t, 9, 1, ip, Action{Type: ActionDrop})); err == nil {
		t.Fatal("modify of an unknown rule must error")
	}
	if err := tbl.Modify(Rule{ID: 2, Action: Action{Type: ActionDrop}}); err == nil {
		t.Fatal("modify with an invalid match must error")
	}
}

func TestOverridesAffectForwardingNotDump(t *testing.T) {
	tbl := NewTable(0)
	ip := header.IPv4(10, 0, 0, 1)
	if err := tbl.Install(dstRule(t, 1, 1, ip, Action{Type: ActionOutput, Port: 2})); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetOverride(1, Override{Action: Action{Type: ActionOutput, Port: 5}}); err != nil {
		t.Fatal(err)
	}
	_, act, ok := tbl.Lookup(packetTo(t, ip))
	if !ok || act.Port != 5 {
		t.Fatalf("override not applied: %+v", act)
	}
	dump := tbl.Dump()
	if len(dump) != 1 || dump[0].Action.Port != 2 {
		t.Fatalf("dump must lie with original action, got %+v", dump)
	}
	ids := tbl.OverriddenIDs()
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("OverriddenIDs = %v", ids)
	}
	tbl.ClearOverride(1)
	_, act, _ = tbl.Lookup(packetTo(t, ip))
	if act.Port != 2 {
		t.Fatal("clear override failed")
	}
	if err := tbl.SetOverride(99, Override{}); err == nil {
		t.Fatal("override on unknown rule must error")
	}
	if err := tbl.SetOverride(1, Override{Action: Action{Type: ActionDrop}}); err != nil {
		t.Fatal(err)
	}
	tbl.ClearAllOverrides()
	if tbl.Overridden(1) {
		t.Fatal("ClearAllOverrides failed")
	}
}

func TestRuleAccessor(t *testing.T) {
	tbl := NewTable(0)
	ip := header.IPv4(10, 0, 0, 1)
	if err := tbl.Install(dstRule(t, 42, 1, ip, Action{Type: ActionDeliver, Port: 3})); err != nil {
		t.Fatal(err)
	}
	r, ok := tbl.Rule(42)
	if !ok || r.Action.Type != ActionDeliver {
		t.Fatalf("Rule = %+v ok=%v", r, ok)
	}
	if _, ok := tbl.Rule(1); ok {
		t.Fatal("unknown rule must not resolve")
	}
}

func TestSymbolicMatchesPriorityCarving(t *testing.T) {
	tbl := NewTable(0)
	specific := header.IPv4(10, 0, 0, 1)
	hi, err := layout.MatchExact(layout.Wildcard(), header.FieldDstIP, specific)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := layout.MatchPrefix(layout.Wildcard(), header.FieldDstIP, header.IPv4(10, 0, 0, 0), 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install(Rule{ID: 1, Priority: 100, Match: hi, Action: Action{Type: ActionOutput, Port: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install(Rule{ID: 2, Priority: 1, Match: lo, Action: Action{Type: ActionOutput, Port: 2}}); err != nil {
		t.Fatal(err)
	}
	matches := tbl.SymbolicMatches(layout.Wildcard())
	if len(matches) < 2 {
		t.Fatalf("want matches for both rules, got %d", len(matches))
	}
	// The specific packet must land only in rule 1's share.
	p := packetTo(t, specific)
	for _, m := range matches {
		in := m.Space.MatchesPacket(p)
		if m.Rule.ID == 1 && !in {
			t.Fatal("specific packet missing from high-priority share")
		}
		if m.Rule.ID == 2 && in {
			t.Fatal("specific packet leaked into low-priority share")
		}
	}
	// All shares must be pairwise disjoint.
	for i := range matches {
		for j := i + 1; j < len(matches); j++ {
			if matches[i].Space.Overlaps(matches[j].Space) {
				t.Fatalf("shares %d and %d overlap", i, j)
			}
		}
	}
}

func TestSymbolicMatchesMiss(t *testing.T) {
	tbl := NewTable(0)
	if got := tbl.SymbolicMatches(layout.Wildcard()); len(got) != 0 {
		t.Fatalf("empty table must not match, got %v", got)
	}
}

func TestConcurrentCountAndLookup(t *testing.T) {
	tbl := NewTable(0)
	ip := header.IPv4(10, 0, 0, 1)
	if err := tbl.Install(dstRule(t, 1, 1, ip, Action{Type: ActionOutput})); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	p := packetTo(t, ip)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tbl.Count(1, 1)
				tbl.Lookup(p)
				tbl.Counters()
			}
		}()
	}
	wg.Wait()
	if got := tbl.Counters()[1]; got != 8000 {
		t.Fatalf("concurrent counting lost updates: %d", got)
	}
}

func TestActionString(t *testing.T) {
	cases := map[string]Action{
		"output:3":  {Type: ActionOutput, Port: 3},
		"drop":      {Type: ActionDrop},
		"deliver:1": {Type: ActionDeliver, Port: 1},
		"invalid":   {},
	}
	for want, a := range cases {
		if got := a.String(); got != want {
			t.Errorf("Action%v.String() = %q, want %q", a, got, want)
		}
	}
}
