// Package header implements ternary header spaces: fixed-width packet
// headers whose bits are 0, 1, or wildcard (*). Header spaces are the
// foundation of ATPG-style symbolic reachability used by the FCM
// generator: an all-wildcard header is injected at each terminal port and
// intersected with rule matches as it traverses the network.
//
// A Space is immutable from the caller's point of view: all operations
// return fresh values and never mutate their receivers, so spaces can be
// shared freely across goroutines once constructed.
package header

import (
	"errors"
	"fmt"
	"strings"
)

// wordBits is the number of bits carried per backing word.
const wordBits = 64

// ErrWidthMismatch is returned when two spaces or packets of different
// widths are combined.
var ErrWidthMismatch = errors.New("header: width mismatch")

// Space is a ternary bit vector of fixed width. Each bit position is
// either exact (mask bit 1, value bit meaningful) or wildcard (mask bit
// 0). The zero value is not usable; construct spaces with Wildcard or
// Exact.
type Space struct {
	width int
	// value holds the exact bit values where mask is 1. Bits where the
	// corresponding mask bit is 0 are always stored as 0 so that Equal
	// can compare words directly.
	value []uint64
	mask  []uint64
}

// Wildcard returns the all-wildcard space of the given width. It matches
// every packet of that width.
func Wildcard(width int) Space {
	n := words(width)
	return Space{width: width, value: make([]uint64, n), mask: make([]uint64, n)}
}

// Exact returns a space matching exactly the given packet.
func Exact(p Packet) Space {
	n := words(p.width)
	s := Space{width: p.width, value: make([]uint64, n), mask: make([]uint64, n)}
	copy(s.value, p.bits)
	for i := range s.mask {
		s.mask[i] = ^uint64(0)
	}
	clearTail(&s)
	return s
}

// words returns the number of 64-bit words needed for width bits.
func words(width int) int {
	return (width + wordBits - 1) / wordBits
}

// clearTail zeroes bits beyond the logical width so word-wise comparison
// is exact.
func clearTail(s *Space) {
	if s.width%wordBits == 0 || len(s.mask) == 0 {
		return
	}
	last := len(s.mask) - 1
	keep := uint64(1)<<(uint(s.width%wordBits)) - 1
	s.mask[last] &= keep
	s.value[last] &= keep
}

// Width reports the number of bits in the space.
func (s Space) Width() int { return s.width }

// Valid reports whether the space was properly constructed.
func (s Space) Valid() bool { return s.width > 0 && len(s.mask) == words(s.width) }

// Clone returns a deep copy of the space.
func (s Space) Clone() Space {
	c := Space{width: s.width, value: make([]uint64, len(s.value)), mask: make([]uint64, len(s.mask))}
	copy(c.value, s.value)
	copy(c.mask, s.mask)
	return c
}

// Bit reports the ternary state of bit i: 0, 1, or Any.
func (s Space) Bit(i int) Trit {
	w, b := i/wordBits, uint(i%wordBits)
	if s.mask[w]>>b&1 == 0 {
		return Any
	}
	if s.value[w]>>b&1 == 1 {
		return One
	}
	return Zero
}

// WithBit returns a copy of s with bit i set to the given trit.
func (s Space) WithBit(i int, t Trit) Space {
	c := s.Clone()
	w, b := i/wordBits, uint(i%wordBits)
	switch t {
	case Any:
		c.mask[w] &^= 1 << b
		c.value[w] &^= 1 << b
	case Zero:
		c.mask[w] |= 1 << b
		c.value[w] &^= 1 << b
	case One:
		c.mask[w] |= 1 << b
		c.value[w] |= 1 << b
	}
	return c
}

// Trit is a ternary bit state.
type Trit uint8

// Ternary bit states. Zero and One are exact bits; Any is a wildcard.
const (
	Zero Trit = iota
	One
	Any
)

func (t Trit) String() string {
	switch t {
	case Zero:
		return "0"
	case One:
		return "1"
	default:
		return "*"
	}
}

// Intersect returns the intersection of two spaces and whether it is
// non-empty. The intersection is empty when any bit is exact in both
// spaces with conflicting values. A miss allocates nothing; a hit
// allocates one backing array shared by the result's value and mask.
func (s Space) Intersect(o Space) (Space, bool) {
	if !s.Overlaps(o) {
		return Space{}, false
	}
	n := len(s.mask)
	buf := make([]uint64, 2*n)
	out := Space{width: s.width, value: buf[:n:n], mask: buf[n:]}
	for i := range out.mask {
		out.mask[i] = s.mask[i] | o.mask[i]
		out.value[i] = s.value[i] | o.value[i]
	}
	return out, true
}

// Overlaps reports whether the two spaces share at least one packet:
// no bit is exact in both with conflicting values. It is word-parallel
// and allocates nothing — the symbolic walk asks it of every candidate
// rule against every remainder piece.
func (s Space) Overlaps(o Space) bool {
	if s.width != o.width {
		return false
	}
	for i, m := range s.mask {
		if m&o.mask[i]&(s.value[i]^o.value[i]) != 0 {
			return false
		}
	}
	return true
}

// Covers reports whether every packet in o is also in s (s ⊇ o).
func (s Space) Covers(o Space) bool {
	if s.width != o.width {
		return false
	}
	for i := range s.mask {
		// Every exact bit of s must be exact in o with the same value.
		if s.mask[i]&^o.mask[i] != 0 {
			return false
		}
		if s.mask[i]&(s.value[i]^o.value[i]) != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether two spaces describe the same set of packets.
func (s Space) Equal(o Space) bool {
	if s.width != o.width {
		return false
	}
	for i := range s.mask {
		if s.mask[i] != o.mask[i] || s.value[i] != o.value[i] {
			return false
		}
	}
	return true
}

// ExactBits returns the number of non-wildcard bits; used for
// most-specific-match diagnostics.
func (s Space) ExactBits() int {
	n := 0
	for _, m := range s.mask {
		n += popcount(m)
	}
	return n
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// MatchesPacket reports whether the concrete packet p lies inside the
// space.
func (s Space) MatchesPacket(p Packet) bool {
	if s.width != p.width {
		return false
	}
	for i := range s.mask {
		if s.mask[i]&(s.value[i]^p.bits[i]) != 0 {
			return false
		}
	}
	return true
}

// String renders the space most-significant bit first, e.g. "10**".
func (s Space) String() string {
	var b strings.Builder
	b.Grow(s.width)
	for i := s.width - 1; i >= 0; i-- {
		b.WriteString(s.Bit(i).String())
	}
	return b.String()
}

// SetField returns a copy of s with the field bits [offset,
// offset+fieldWidth) constrained so that the top prefixLen bits of the
// field equal the top bits of value and the remaining field bits are
// wildcards. This is the primitive behind IPv4-prefix matches.
func (s Space) SetField(offset, fieldWidth int, value uint64, prefixLen int) (Space, error) {
	if offset < 0 || fieldWidth <= 0 || offset+fieldWidth > s.width {
		return Space{}, fmt.Errorf("header: field [%d,%d) out of range for width %d", offset, offset+fieldWidth, s.width)
	}
	if prefixLen < 0 || prefixLen > fieldWidth {
		return Space{}, fmt.Errorf("header: prefix length %d out of range for field width %d", prefixLen, fieldWidth)
	}
	c := s.Clone()
	for i := 0; i < fieldWidth; i++ {
		bitPos := offset + i
		// Bit i of the field counts from the least-significant end.
		if fieldWidth-i <= prefixLen {
			t := Zero
			if value>>uint(i)&1 == 1 {
				t = One
			}
			c = c.WithBit(bitPos, t)
		} else {
			c = c.WithBit(bitPos, Any)
		}
	}
	return c, nil
}

// Field extracts the exact value of the field bits [offset,
// offset+fieldWidth). Wildcard bits read as zero; ok is false when any
// bit of the field is a wildcard.
func (s Space) Field(offset, fieldWidth int) (value uint64, ok bool) {
	ok = true
	for i := 0; i < fieldWidth; i++ {
		switch s.Bit(offset + i) {
		case One:
			value |= 1 << uint(i)
		case Any:
			ok = false
		}
	}
	return value, ok
}

// Packet is a concrete (fully specified) header of fixed width.
type Packet struct {
	width int
	bits  []uint64
}

// NewPacket returns an all-zero packet of the given width.
func NewPacket(width int) Packet {
	return Packet{width: width, bits: make([]uint64, words(width))}
}

// Width reports the number of bits in the packet.
func (p Packet) Width() int { return p.width }

// Clone returns a deep copy of the packet.
func (p Packet) Clone() Packet {
	c := Packet{width: p.width, bits: make([]uint64, len(p.bits))}
	copy(c.bits, p.bits)
	return c
}

// Bit reports bit i of the packet.
func (p Packet) Bit(i int) bool {
	return p.bits[i/wordBits]>>(uint(i%wordBits))&1 == 1
}

// WithBit returns a copy of p with bit i set to v.
func (p Packet) WithBit(i int, v bool) Packet {
	c := p.Clone()
	w, b := i/wordBits, uint(i%wordBits)
	if v {
		c.bits[w] |= 1 << b
	} else {
		c.bits[w] &^= 1 << b
	}
	return c
}

// WithField returns a copy of p with field bits [offset,
// offset+fieldWidth) set from the low bits of value.
func (p Packet) WithField(offset, fieldWidth int, value uint64) (Packet, error) {
	if offset < 0 || fieldWidth <= 0 || offset+fieldWidth > p.width {
		return Packet{}, fmt.Errorf("header: field [%d,%d) out of range for width %d", offset, offset+fieldWidth, p.width)
	}
	c := p.Clone()
	for i := 0; i < fieldWidth; i++ {
		c = c.WithBit(offset+i, value>>uint(i)&1 == 1)
	}
	return c, nil
}

// Field extracts field bits [offset, offset+fieldWidth) as an integer.
func (p Packet) Field(offset, fieldWidth int) uint64 {
	var v uint64
	for i := 0; i < fieldWidth; i++ {
		if p.Bit(offset + i) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// AnyPacket returns one concrete packet contained in the space, with all
// wildcard bits resolved to zero.
func (s Space) AnyPacket() Packet {
	p := Packet{width: s.width, bits: make([]uint64, len(s.value))}
	copy(p.bits, s.value)
	return p
}

// String renders the packet most-significant bit first.
func (p Packet) String() string {
	var b strings.Builder
	b.Grow(p.width)
	for i := p.width - 1; i >= 0; i-- {
		if p.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
