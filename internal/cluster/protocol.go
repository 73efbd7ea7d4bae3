package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"

	"foces/internal/churn"
	"foces/internal/core"
	"foces/internal/matrix"
	"foces/internal/topo"
)

// Wire protocol version and frame cap, layered on the shared
// length-prefix framing (internal/wire). A full baseline snapshot of a
// large slice is the biggest message; 64 MiB comfortably covers
// FatTree(16)-scale slices while still bounding a corrupt length
// prefix.
const (
	Version  = 3
	maxFrame = 64 << 20
)

// Message types. Control messages (hello through rank1, error) are
// infrequent and gob-encoded; the per-window hot path (window,
// verdict) uses hand-rolled big-endian encoding so serialization
// cannot dominate the detection work it ships.
const (
	msgHello byte = iota + 1
	msgHelloAck
	msgAssign
	msgBaseline
	msgRank1
	msgWindow
	msgVerdict
	msgHeartbeat
	msgError
)

// protoName is the handshake guard: a HELLO carrying anything else is
// refused, so a stray OpenFlow client cannot confuse a detector node.
const protoName = "foces-cluster"

// helloMsg opens a coordinator→node session: protocol check plus the
// detection options every replicated engine must be constructed with
// (thresholds and the index denominator shape every verdict, so the
// two sides must agree on them or verdicts diverge).
type helloMsg struct {
	Proto string
	Space int // rule space (full counter-vector length), informative
	Epoch uint64
	Opts  core.Options
}

// helloAckMsg is the node's reply.
type helloAckMsg struct {
	Node string // listen address, for logs and /status
}

// assignMsg tells a node which switches the coordinator's ring
// currently maps to it. Informative: authoritative state arrives as
// baselines, and windows name their shards explicitly.
type assignMsg struct {
	Switches []topo.SwitchID
}

// wireCSR is a CSR matrix in shippable form (triplets, row-major).
type wireCSR struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Vals       []float64
}

func csrToWire(h *matrix.CSR) wireCSR {
	w := wireCSR{Rows: h.Rows(), Cols: h.Cols()}
	for i := 0; i < h.Rows(); i++ {
		h.RowEntries(i, func(col int, v float64) {
			w.RowIdx = append(w.RowIdx, int32(i))
			w.ColIdx = append(w.ColIdx, int32(col))
			w.Vals = append(w.Vals, v)
		})
	}
	return w
}

func wireToCSR(w wireCSR) (*matrix.CSR, error) {
	entries := make([]matrix.Triplet, len(w.Vals))
	for k := range w.Vals {
		entries[k] = matrix.Triplet{Row: int(w.RowIdx[k]), Col: int(w.ColIdx[k]), Val: w.Vals[k]}
	}
	return matrix.NewCSR(w.Rows, w.Cols, entries)
}

// rowVecMsg / changeMsg mirror churn.RowVec / churn.SliceChange.
type rowVecMsg struct {
	RuleID int
	Cols   []int
	Vals   []float64
}

type changeMsg struct {
	Epoch   uint64
	Removed []rowVecMsg
	Added   []rowVecMsg
}

func toChangeMsg(ch churn.SliceChange) changeMsg {
	conv := func(rvs []churn.RowVec) []rowVecMsg {
		out := make([]rowVecMsg, len(rvs))
		for i, rv := range rvs {
			out[i] = rowVecMsg{RuleID: rv.RuleID, Cols: rv.Cols, Vals: rv.Vals}
		}
		return out
	}
	return changeMsg{Epoch: ch.Epoch, Removed: conv(ch.Removed), Added: conv(ch.Added)}
}

func fromChangeMsg(ch changeMsg) churn.SliceChange {
	conv := func(rvs []rowVecMsg) []churn.RowVec {
		out := make([]churn.RowVec, len(rvs))
		for i, rv := range rvs {
			out[i] = churn.RowVec{RuleID: rv.RuleID, Cols: rv.Cols, Vals: rv.Vals}
		}
		return out
	}
	return churn.SliceChange{Epoch: ch.Epoch, Removed: conv(ch.Removed), Added: conv(ch.Added)}
}

// baselineMsg is a full-snapshot shipment of one slice's replication
// state: the base generation plus the rank-one changes already applied
// on top of it. The node refactors the base and replays the changes in
// order — the manager's exact factor lifecycle.
type baselineMsg struct {
	Switch    topo.SwitchID
	BaseEpoch uint64
	BaseRows  []int
	BaseH     wireCSR
	Changes   []changeMsg
}

// rank1Msg ships incremental rank-one deltas for a slice whose base
// the node already holds.
type rank1Msg struct {
	Switch  topo.SwitchID
	Changes []changeMsg
}

// errorMsg reports a node-side failure for a window (Seq != 0) or for
// baseline ingestion (Seq == 0).
type errorMsg struct {
	Seq  uint64
	Text string
}

func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("cluster: encode: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeGob(body []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		return fmt.Errorf("cluster: decode: %w", err)
	}
	return nil
}

// windowShard is one slice's share of a detection window: the
// coordinator-gathered counter sub-vector and the slice-local indices
// to mask (none on a clean window). Shipping sub-vectors instead of the
// full y splits gather and serialization cost across nodes and leaves
// the node nothing to do but run its prepared engine.
type windowShard struct {
	Switch topo.SwitchID
	Sub    []float64
	Mask   []int
}

// windowMsg is one dispatched window (or requeued remnant of one). It
// carries the caller's unresolved detection options — each slice
// engine resolves defaults against its own sub-vector, exactly as the
// local SlicedDetector does.
type windowMsg struct {
	Seq    uint64
	Opts   core.Options
	Shards []windowShard
}

// verdictShard is one slice's detection result.
type verdictShard struct {
	Switch topo.SwitchID
	Res    core.Result
}

// verdictMsg answers a windowMsg.
type verdictMsg struct {
	Seq    uint64
	Shards []verdictShard
}

// Binary codec helpers. All integers big-endian; floats as raw IEEE
// 754 bits, so ±Inf and every ulp survive the trip — verdict identity
// with a local run is bit-level, not approximate.

type bwriter struct{ b []byte }

func (w *bwriter) u8(v byte)     { w.b = append(w.b, v) }
func (w *bwriter) u32(v uint32)  { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *bwriter) u64(v uint64)  { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *bwriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *bwriter) floats(vs []float64) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.f64(v)
	}
}
func (w *bwriter) ints(vs []int) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.u32(uint32(v))
	}
}

type breader struct {
	b   []byte
	err error
}

func (r *breader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *breader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *breader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *breader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *breader) floats() []float64 {
	n := int(r.u32())
	if r.err != nil || len(r.b) < 8*n {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out
}

func (r *breader) ints() []int {
	n := int(r.u32())
	if r.err != nil || len(r.b) < 4*n {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.u32())
	}
	return out
}

func (r *breader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("cluster: truncated binary payload")
	}
}

func encodeWindow(w *windowMsg) []byte {
	var bw bwriter
	bw.u64(w.Seq)
	bw.f64(w.Opts.Threshold)
	bw.f64(w.Opts.ZeroTol)
	bw.u32(uint32(w.Opts.Denominator))
	bw.u32(uint32(len(w.Shards)))
	for _, sh := range w.Shards {
		bw.u64(uint64(sh.Switch))
		bw.floats(sh.Sub)
		bw.ints(sh.Mask)
	}
	return bw.b
}

func decodeWindow(body []byte) (*windowMsg, error) {
	r := breader{b: body}
	w := &windowMsg{Seq: r.u64()}
	w.Opts.Threshold = r.f64()
	w.Opts.ZeroTol = r.f64()
	w.Opts.Denominator = core.Denominator(r.u32())
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		w.Shards = append(w.Shards, windowShard{
			Switch: topo.SwitchID(r.u64()),
			Sub:    r.floats(),
			Mask:   r.ints(),
		})
	}
	if r.err != nil {
		return nil, fmt.Errorf("cluster: window: %w", r.err)
	}
	return w, nil
}

func encodeVerdict(v *verdictMsg) []byte {
	var bw bwriter
	bw.u64(v.Seq)
	bw.u32(uint32(len(v.Shards)))
	for _, sh := range v.Shards {
		bw.u64(uint64(sh.Switch))
		if sh.Res.Anomalous {
			bw.u8(1)
		} else {
			bw.u8(0)
		}
		bw.f64(sh.Res.Index)
		bw.f64(sh.Res.ErrMax)
		bw.f64(sh.Res.ErrMed)
		bw.floats(sh.Res.Delta)
		bw.floats(sh.Res.XHat)
		bw.floats(sh.Res.YHat)
	}
	return bw.b
}

func decodeVerdict(body []byte) (*verdictMsg, error) {
	r := breader{b: body}
	v := &verdictMsg{Seq: r.u64()}
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		sh := verdictShard{Switch: topo.SwitchID(r.u64())}
		sh.Res.Anomalous = r.u8() == 1
		sh.Res.Index = r.f64()
		sh.Res.ErrMax = r.f64()
		sh.Res.ErrMed = r.f64()
		sh.Res.Delta = r.floats()
		sh.Res.XHat = r.floats()
		sh.Res.YHat = r.floats()
		v.Shards = append(v.Shards, sh)
	}
	if r.err != nil {
		return nil, fmt.Errorf("cluster: verdict: %w", r.err)
	}
	return v, nil
}
