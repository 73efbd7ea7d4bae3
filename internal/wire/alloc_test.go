// Frame-layer allocation regression test. Excluded under the race
// detector, whose instrumentation inflates MemStats allocation counts.

//go:build !race

package wire

import (
	"bytes"
	"testing"
)

// TestFrameRoundTripAllocs pins the steady-state cost of the framing
// hot path: after the first round trip grows the write buffer and the
// read body, WriteFrame + ReadFrameInto must not allocate at all.
func TestFrameRoundTripAllocs(t *testing.T) {
	c := NewConn(&bufConn{}, "test", 7, 1<<16)
	payload := bytes.Repeat([]byte{0xAB}, 512)
	var buf []byte
	roundTrip := func() {
		if err := c.WriteFrame(3, 42, payload); err != nil {
			t.Fatal(err)
		}
		typ, xid, body, err := c.ReadFrameInto(buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != 3 || xid != 42 || len(body) != len(payload) {
			t.Fatalf("round trip corrupted frame: type=%d xid=%d len=%d", typ, xid, len(body))
		}
		buf = body[:cap(body)]
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("frame round trip allocated %.1f times per frame; want 0", allocs)
	}
	// The append form: a closure over the caller's locals, encoding
	// straight into the frame buffer, costs nothing either.
	appendTrip := func() {
		n := 0
		if err := c.WriteFrameFunc(3, 42, func(dst []byte) ([]byte, error) {
			n = len(payload)
			return append(dst, payload...), nil
		}); err != nil {
			t.Fatal(err)
		}
		_, _, body, err := c.ReadFrameInto(buf)
		if err != nil || len(body) != n {
			t.Fatalf("round trip corrupted frame: len=%d err=%v", len(body), err)
		}
		buf = body[:cap(body)]
	}
	if allocs := testing.AllocsPerRun(100, appendTrip); allocs != 0 {
		t.Errorf("append-form frame round trip allocated %.1f times per frame; want 0", allocs)
	}
}
