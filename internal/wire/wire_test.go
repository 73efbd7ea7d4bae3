package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// bufConn is an in-memory net.Conn over a single bytes.Buffer: frames
// written with WriteFrame are read back on the same goroutine, so a round
// trip is deterministic (and AllocsPerRun sees only the frame layer's own
// allocations).
type bufConn struct{ buf bytes.Buffer }

func (c *bufConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c *bufConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *bufConn) Close() error                { return nil }
func (c *bufConn) LocalAddr() net.Addr         { return nil }
func (c *bufConn) RemoteAddr() net.Addr        { return nil }
func (c *bufConn) SetDeadline(time.Time) error { return nil }

func (c *bufConn) SetReadDeadline(time.Time) error  { return nil }
func (c *bufConn) SetWriteDeadline(time.Time) error { return nil }

func pipePair(t *testing.T, maxFrame int) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca := NewConn(a, "test", 7, maxFrame)
	cb := NewConn(b, "test", 7, maxFrame)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

func TestFrameRoundTrip(t *testing.T) {
	ca, cb := pipePair(t, 1<<20)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ca.WriteFrame(3, 42, []byte("hello")); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := ca.WriteFrame(9, 43, nil); err != nil {
			t.Errorf("write empty: %v", err)
		}
	}()
	mt, xid, body, err := cb.ReadFrame()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if mt != 3 || xid != 42 || string(body) != "hello" {
		t.Fatalf("got type=%d xid=%d body=%q", mt, xid, body)
	}
	mt, xid, body, err = cb.ReadFrame()
	if err != nil {
		t.Fatalf("read empty: %v", err)
	}
	if mt != 9 || xid != 43 || len(body) != 0 {
		t.Fatalf("got type=%d xid=%d body=%q", mt, xid, body)
	}
	wg.Wait()
}

func TestWriteFrameTooLarge(t *testing.T) {
	ca, _ := pipePair(t, 64)
	err := ca.WriteFrame(1, 0, make([]byte, 64))
	var se *SizeError
	if !errors.As(err, &se) {
		t.Fatalf("expected *SizeError, got %v", err)
	}
	if se.Size != HeaderSize+64 || se.Limit != 64 || se.Proto != "test" {
		t.Fatalf("unexpected SizeError fields: %+v", se)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	// Hand-craft a header whose length prefix exceeds the reader's cap.
	cb := NewConn(b, "test", 7, 64)
	go func() {
		hdr := []byte{7, 1, 0, 0, 1, 0, 0, 0, 0, 0} // total = 256 > 64
		a.Write(hdr)
	}()
	_, _, _, err := cb.ReadFrame()
	var se *SizeError
	if !errors.As(err, &se) {
		t.Fatalf("expected *SizeError, got %v", err)
	}
	if se.Size != 256 || se.Limit != 64 {
		t.Fatalf("unexpected SizeError fields: %+v", se)
	}
}

func TestReadFrameShortLength(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cb := NewConn(b, "test", 7, 64)
	go func() {
		hdr := []byte{7, 1, 0, 0, 0, 4, 0, 0, 0, 0} // total = 4 < header
		a.Write(hdr)
	}()
	_, _, _, err := cb.ReadFrame()
	var se *SizeError
	if !errors.As(err, &se) {
		t.Fatalf("expected *SizeError, got %v", err)
	}
}

func TestReadFrameBadVersion(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	cb := NewConn(b, "test", 7, 64)
	go func() {
		hdr := []byte{8, 1, 0, 0, 0, 10, 0, 0, 0, 0}
		a.Write(hdr)
	}()
	if _, _, _, err := cb.ReadFrame(); err == nil {
		t.Fatal("expected version error")
	}
}

func TestConcurrentWritersInterleaveWholeFrames(t *testing.T) {
	ca, cb := pipePair(t, 1<<20)
	const n = 50
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := make([]byte, 100+w)
			for i := 0; i < n; i++ {
				if err := ca.WriteFrame(byte(w+1), uint32(i), body); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 4*n; i++ {
		mt, _, body, err := cb.ReadFrame()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(body) != 100+int(mt)-1 {
			t.Fatalf("frame %d: writer %d body %d bytes", i, mt, len(body))
		}
	}
	wg.Wait()
}

func TestWriteFrameFunc(t *testing.T) {
	ca, cb := pipePair(t, 64)
	boom := errors.New("cannot encode")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A failed encoder and an oversized body send nothing: the
		// reader's next frame is the good one.
		if err := ca.WriteFrameFunc(1, 1, func(dst []byte) ([]byte, error) {
			return append(dst, "half a bo"...), boom
		}); !errors.Is(err, boom) {
			t.Errorf("failed encoder: err = %v", err)
		}
		var se *SizeError
		if err := ca.WriteFrameFunc(1, 2, func(dst []byte) ([]byte, error) {
			return append(dst, make([]byte, 64)...), nil
		}); !errors.As(err, &se) || se.Size != HeaderSize+64 {
			t.Errorf("oversized body: err = %v", err)
		}
		if err := ca.WriteFrameFunc(3, 42, func(dst []byte) ([]byte, error) {
			if len(dst) != HeaderSize {
				t.Errorf("encoder handed %d bytes, want the reserved header", len(dst))
			}
			return append(dst, "hello"...), nil
		}); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	mt, xid, body, err := cb.ReadFrame()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if mt != 3 || xid != 42 || string(body) != "hello" {
		t.Fatalf("got type=%d xid=%d body=%q", mt, xid, body)
	}
	wg.Wait()
}

// TestReadBodyGrowsWithArrivingBytes: a length prefix the peer does not
// back with data must not make the reader allocate what it advertises.
func TestReadBodyGrowsWithArrivingBytes(t *testing.T) {
	const maxFrame = 16 << 20
	for _, sent := range []int{0, 100, 5000, 70000} {
		stream := make([]byte, HeaderSize+sent)
		stream[0] = 7
		stream[1] = 3
		binary.BigEndian.PutUint32(stream[2:], maxFrame) // claims 16 MiB
		c := NewConn(&bufConn{buf: *bytes.NewBuffer(stream)}, "test", 7, maxFrame)
		before := totalAlloc()
		_, _, _, err := c.ReadFrame()
		grown := totalAlloc() - before
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("%d of 16 MiB sent: err = %v, want a short body", sent, err)
		}
		// Doubling reallocates: in all, a small multiple of what arrived.
		if limit := uint64(8*sent + 8*minBodyChunk); grown > limit {
			t.Errorf("%d body bytes sent under a 16 MiB prefix: reader allocated %d bytes, want <= %d", sent, grown, limit)
		}
	}

	// A body that does arrive is read whole across the growth steps, and
	// the grown buffer then serves the next frame without growing again.
	body := make([]byte, 3*minBodyChunk+17)
	for i := range body {
		body[i] = byte(i * 7)
	}
	c := NewConn(&bufConn{}, "test", 7, maxFrame)
	var buf []byte
	for round := 0; round < 2; round++ {
		if err := c.WriteFrame(3, 42, body); err != nil {
			t.Fatal(err)
		}
		_, _, got, err := c.ReadFrameInto(buf)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("round %d: body corrupted across growth steps (err %v)", round, err)
		}
		if round == 1 && &got[0] != &buf[:1][0] {
			t.Fatal("second frame did not reuse the grown buffer")
		}
		buf = got[:cap(got)]
	}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}
