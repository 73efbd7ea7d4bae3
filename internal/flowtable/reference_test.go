package flowtable

import (
	"math/rand"
	"testing"

	"foces/internal/header"
)

// referenceSymbolicMatches is SymbolicMatchesWithRemainder as it stood
// before the walk went candidate-first: every rule of the table is
// intersected with every remainder piece and the whole piece list is
// re-appended per rule. It is kept verbatim as the reference the
// production walk must equal — same matches in the same order, same
// remainder list — because FCM column order and Flow.Space follow from
// both.
func referenceSymbolicMatches(t *Table, s header.Space) ([]SymbolicMatch, []header.Space) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []SymbolicMatch
	remaining := []header.Space{s}
	for _, r := range t.rules {
		if len(remaining) == 0 {
			break
		}
		var next []header.Space
		for _, rem := range remaining {
			hit, ok := rem.Intersect(r.Match)
			if !ok {
				next = append(next, rem)
				continue
			}
			out = append(out, SymbolicMatch{Rule: *r, Space: hit})
			next = append(next, header.Subtract(rem, r.Match)...)
		}
		remaining = next
	}
	return out, remaining
}

// refWidth is the five-tuple header width every FOCES table uses.
const refWidth = 104

// ternaryOver draws a space over refWidth bits that pins each of the
// given positions with probability p and leaves the rest wildcard.
// Drawing every rule and every injected space over the same few
// positions is what makes them overlap, shadow and split one another;
// uniformly random 104-bit ternaries almost never meet.
func ternaryOver(rng *rand.Rand, positions []int, p float64) header.Space {
	s := header.Wildcard(refWidth)
	for _, pos := range positions {
		if rng.Float64() < p {
			t := header.Zero
			if rng.Intn(2) == 1 {
				t = header.One
			}
			s = s.WithBit(pos, t)
		}
	}
	return s
}

func randomPacketSpace(rng *rand.Rand) header.Space {
	p := header.NewPacket(refWidth)
	for i := 0; i < refWidth; i++ {
		p = p.WithBit(i, rng.Intn(2) == 1)
	}
	return header.Exact(p)
}

func TestSymbolicMatchesEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		// 6-12 live bit positions straddling both backing words.
		positions := rng.Perm(refWidth)[:6+rng.Intn(7)]
		n := 1 + rng.Intn(200)
		priorities := 1 + rng.Intn(4) // few levels: ties and overlaps at every level
		tbl := NewTable(1)
		for id := 0; id < n; id++ {
			match := ternaryOver(rng, positions, 0.1+0.6*rng.Float64())
			if trial%3 == 0 && rng.Intn(25) == 0 {
				match = header.Wildcard(refWidth) // a catch-all somewhere in the order: empty remainder
			}
			r := Rule{ID: id, Priority: rng.Intn(priorities), Match: match, Action: Action{Type: ActionDrop}}
			if err := tbl.Install(r); err != nil {
				t.Fatal(err)
			}
		}
		injected := []header.Space{
			header.Wildcard(refWidth),
			randomPacketSpace(rng),
			ternaryOver(rng, positions, 0.2),
			ternaryOver(rng, positions, 0.8),
			ternaryOver(rng, rng.Perm(refWidth)[:40], 0.5),
		}
		for k, s := range injected {
			wantM, wantR := referenceSymbolicMatches(tbl, s)
			gotM, gotR := tbl.SymbolicMatchesWithRemainder(s)
			if len(gotM) != len(wantM) {
				t.Fatalf("trial %d space %d (%d rules): %d matches, want %d", trial, k, n, len(gotM), len(wantM))
			}
			for i := range wantM {
				if gotM[i].Rule.ID != wantM[i].Rule.ID || !gotM[i].Space.Equal(wantM[i].Space) {
					t.Fatalf("trial %d space %d: match %d = rule %d %v, want rule %d %v", trial, k, i,
						gotM[i].Rule.ID, gotM[i].Space, wantM[i].Rule.ID, wantM[i].Space)
				}
			}
			if len(gotR) != len(wantR) {
				t.Fatalf("trial %d space %d: %d remainder pieces, want %d", trial, k, len(gotR), len(wantR))
			}
			for i := range wantR {
				if !gotR[i].Equal(wantR[i]) {
					t.Fatalf("trial %d space %d: remainder piece %d = %v, want %v", trial, k, i, gotR[i], wantR[i])
				}
			}
		}
	}
}
