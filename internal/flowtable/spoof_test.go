package flowtable

import (
	"reflect"
	"testing"

	"foces/internal/header"
)

func TestSpoofCounter(t *testing.T) {
	tbl := NewTable(0)
	ip := header.IPv4(10, 0, 0, 1)
	if err := tbl.Install(dstRule(t, 1, 1, ip, Action{Type: ActionOutput})); err != nil {
		t.Fatal(err)
	}
	tbl.Count(1, 100)
	if err := tbl.SpoofCounter(1, 42); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Counters()[1]; got != 42 {
		t.Fatalf("reported counter = %d, want spoofed 42", got)
	}
	if got := tbl.TrueCounters()[1]; got != 100 {
		t.Fatalf("true counter = %d, want 100", got)
	}
	// More matches keep accumulating underneath the lie.
	tbl.Count(1, 5)
	if got := tbl.Counters()[1]; got != 42 {
		t.Fatalf("spoof must persist, got %d", got)
	}
	if got := tbl.TrueCounters()[1]; got != 105 {
		t.Fatalf("true counter = %d, want 105", got)
	}
	tbl.ClearSpoofedCounters()
	if got := tbl.Counters()[1]; got != 105 {
		t.Fatalf("after clearing spoof, reported = %d, want 105", got)
	}
	if err := tbl.SpoofCounter(99, 1); err == nil {
		t.Fatal("spoofing unknown rule must error")
	}
}

func TestRemoveClearsSpoof(t *testing.T) {
	tbl := NewTable(0)
	ip := header.IPv4(10, 0, 0, 1)
	if err := tbl.Install(dstRule(t, 1, 1, ip, Action{Type: ActionOutput})); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SpoofCounter(1, 7); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Remove(1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install(dstRule(t, 1, 1, ip, Action{Type: ActionOutput})); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Counters()[1]; got != 0 {
		t.Fatalf("reinstalled rule inherited spoof: %d", got)
	}
}

// TestEachCounterMatchesCounters: the iterator reports, rule for rule,
// what the Counters map does — spoofed values in place of real ones,
// uncounted rules as zero, removed rules not at all.
func TestEachCounterMatchesCounters(t *testing.T) {
	tbl := NewTable(0)
	for id := 1; id <= 5; id++ {
		if err := tbl.Install(dstRule(t, id, id, header.IPv4(10, 0, 0, byte(id)), Action{Type: ActionOutput})); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Count(1, 100)
	tbl.Count(2, 200)
	tbl.Count(4, 400)
	if err := tbl.SpoofCounter(2, 42); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SpoofCounter(3, 7); err != nil { // never matched, still lied about
		t.Fatal(err)
	}
	if err := tbl.Remove(4); err != nil {
		t.Fatal(err)
	}
	walked := make(map[int]uint64)
	tbl.EachCounter(func(id int, packets uint64) {
		if _, twice := walked[id]; twice {
			t.Errorf("rule %d visited twice", id)
		}
		walked[id] = packets
	})
	want := map[int]uint64{1: 100, 2: 42, 3: 7, 5: 0}
	if !reflect.DeepEqual(walked, want) {
		t.Fatalf("EachCounter walked %v, want %v", walked, want)
	}
	if got := tbl.Counters(); !reflect.DeepEqual(got, walked) {
		t.Fatalf("Counters() = %v, EachCounter walked %v", got, walked)
	}
}
