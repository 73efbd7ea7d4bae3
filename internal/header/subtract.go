package header

import (
	"math/bits"
	"slices"
)

// Subtract computes the set difference a \ b as a list of pairwise
// disjoint spaces. This is the classic header-space difference used to
// carve a symbolic header around higher-priority rules: each exact bit
// of b that is a wildcard in a splits off the sub-space on the opposite
// side of that bit, in ascending bit order.
//
// The result is empty when b covers a, and {a} when the two spaces are
// disjoint.
func Subtract(a, b Space) []Space {
	return AppendSubtract(nil, a, b)
}

// AppendSubtract appends the pieces of a \ b to dst and returns it, so
// a caller carving many spaces fills one list instead of concatenating
// per-call results. dst grows at most once per call, and the pieces of
// one call share one backing array.
func AppendSubtract(dst []Space, a, b Space) []Space {
	if !a.Overlaps(b) { // includes a width mismatch
		return append(dst, a)
	}
	// One piece per bit that b pins and a leaves open.
	pieces := 0
	for w, m := range b.mask {
		pieces += bits.OnesCount64(m &^ a.mask[w])
	}
	if pieces == 0 {
		return dst
	}
	n := len(a.mask)
	dst = slices.Grow(dst, pieces)
	buf := make([]uint64, 2*n*pieces)
	// Each piece is the one before it (a, for the first) moved onto b's
	// side of that piece's split bit and off b's side of the next one.
	fromValue, fromMask := a.value, a.mask
	fromWord, fromBit := 0, uint64(0)
	for w := range n {
		for split := b.mask[w] &^ a.mask[w]; split != 0; split &= split - 1 {
			bit := split & -split
			value, mask := buf[:n:n], buf[n:2*n:2*n]
			buf = buf[2*n:]
			copy(value, fromValue)
			copy(mask, fromMask)
			value[fromWord] ^= fromBit
			mask[w] |= bit
			value[w] |= bit &^ b.value[w]
			dst = append(dst, Space{width: a.width, value: value, mask: mask})
			fromValue, fromMask, fromWord, fromBit = value, mask, w, bit
		}
	}
	return dst
}

// SubtractAll removes every space in bs from a, returning a disjoint
// cover of a \ ∪bs.
func SubtractAll(a Space, bs []Space) []Space {
	remain := []Space{a}
	for _, b := range bs {
		var next []Space
		for _, r := range remain {
			next = AppendSubtract(next, r, b)
		}
		remain = next
		if len(remain) == 0 {
			break
		}
	}
	return remain
}
