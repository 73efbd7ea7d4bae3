package header

import (
	"math/rand"
	"testing"
)

// referenceIntersect and referenceSubtract are Intersect and Subtract as
// they stood before they went word-parallel: trit by trit through Bit
// and WithBit. The production routines must return the same spaces, and
// Subtract the same pieces in the same order — the symbolic walk's FCM
// column order hangs on it.
func referenceIntersect(s, o Space) (Space, bool) {
	if s.width != o.width {
		return Space{}, false
	}
	out := Wildcard(s.width)
	for i := 0; i < s.width; i++ {
		a, b := s.Bit(i), o.Bit(i)
		switch {
		case a == Any:
			out = out.WithBit(i, b)
		case b == Any || a == b:
			out = out.WithBit(i, a)
		default:
			return Space{}, false
		}
	}
	return out, true
}

func referenceSubtract(a, b Space) []Space {
	if a.width != b.width {
		return []Space{a}
	}
	if _, ok := referenceIntersect(a, b); !ok {
		return []Space{a}
	}
	var out []Space
	cur := a
	for i := 0; i < a.width; i++ {
		bBit := b.Bit(i)
		if bBit == Any || cur.Bit(i) != Any {
			continue
		}
		opp := One
		if bBit == One {
			opp = Zero
		}
		out = append(out, cur.WithBit(i, opp))
		cur = cur.WithBit(i, bBit)
	}
	return out
}

// randomTernary draws a space whose bits are exact with probability
// pExact (0 gives the full wildcard, 1 a single packet).
func randomTernary(rng *rand.Rand, width int, pExact float64) Space {
	s := Wildcard(width)
	for i := 0; i < width; i++ {
		if rng.Float64() < pExact {
			t := Zero
			if rng.Intn(2) == 1 {
				t = One
			}
			s = s.WithBit(i, t)
		}
	}
	return s
}

func TestWordParallelOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	densities := []float64{0, 0.05, 0.3, 0.7, 1}
	for _, width := range []int{1, 7, 64, 65, 104, 128, 300} {
		for trial := 0; trial < 200; trial++ {
			a := randomTernary(rng, width, densities[rng.Intn(len(densities))])
			b := randomTernary(rng, width, densities[rng.Intn(len(densities))])
			if trial%4 == 0 {
				// Force an overlap: b agrees with a wherever both are exact.
				if sub, ok := referenceIntersect(a, randomTernary(rng, width, 0.2)); ok {
					b = sub
				}
			}
			wantHit, wantOK := referenceIntersect(a, b)
			gotHit, gotOK := a.Intersect(b)
			if gotOK != wantOK || (wantOK && !gotHit.Equal(wantHit)) {
				t.Fatalf("width %d: Intersect(%v, %v) = %v,%v want %v,%v", width, a, b, gotHit, gotOK, wantHit, wantOK)
			}
			if a.Overlaps(b) != wantOK {
				t.Fatalf("width %d: Overlaps(%v, %v) = %v", width, a, b, !wantOK)
			}
			if wantOK && (!a.Covers(gotHit) || !b.Covers(gotHit)) {
				t.Fatalf("width %d: operands must cover their intersection", width)
			}
			want := referenceSubtract(a, b)
			got := Subtract(a, b)
			if len(got) != len(want) {
				t.Fatalf("width %d: %v \\ %v has %d pieces, want %d", width, a, b, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("width %d: %v \\ %v piece %d = %v, want %v", width, a, b, i, got[i], want[i])
				}
			}
			// Appending must leave what was already there alone.
			pre := []Space{b}
			app := AppendSubtract(pre, a, b)
			if len(app) != 1+len(want) || !app[0].Equal(b) {
				t.Fatalf("width %d: AppendSubtract clobbered its prefix", width)
			}
		}
	}
	if Wildcard(4).Overlaps(Wildcard(8)) {
		t.Fatal("spaces of different widths must not overlap")
	}
}
