package main

import (
	"runtime"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending: percentile must sort
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{200, 50, 100},
		{200, 95, 190},
		{201, 95, 191}, // ceil(0.95·201) = 191
		{1000, 99, 990},
		{21, 50, 11},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if err != nil {
			t.Fatalf("p%v of %d: %v", tc.p, tc.n, err)
		}
		if got != tc.want {
			t.Errorf("p%v of 1..%d = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{199, 95}, // 9 samples beyond
		{12, 50},  // 6 beyond
		{999, 99},
		{0, 50},
		{500, 0},
		{500, 100},
	} {
		if v, err := percentile(seq(tc.n), tc.p); err == nil {
			t.Errorf("p%v of %d samples = %v, want a refusal", tc.p, tc.n, v)
		}
	}
	if _, err := percentile(seq(200), 95); err != nil {
		t.Errorf("p95 of 200 samples has exactly ten beyond it: %v", err)
	}
}

func TestMedianOfFew(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1}); got != 1 {
		t.Errorf("nearest-rank median(4,1) = %v, want the lower value", got)
	}
}

// pollTree is a window whose poll has three overlapping requests:
//
//	window        [0,100)
//	  poll        [0,60)
//	    req       [5,30) [10,50) [40,55)   union 50
//	  push        [60,70)
//	  serve       [70,95)
//	    full      [72,80)
//	    sliced    [80,94)
//	  (5 left to the window itself)
func pollTree() []span {
	return []span{
		{Name: "window", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "poll", Parent: 0, StartNS: 0, EndNS: 60},
		{Name: "req", Parent: 1, StartNS: 5, EndNS: 30},
		{Name: "req", Parent: 1, StartNS: 10, EndNS: 50},
		{Name: "req", Parent: 1, StartNS: 40, EndNS: 55},
		{Name: "push", Parent: 0, StartNS: 60, EndNS: 70},
		{Name: "serve", Parent: 0, StartNS: 70, EndNS: 95},
		{Name: "full", Parent: 6, StartNS: 72, EndNS: 80},
		{Name: "sliced", Parent: 6, StartNS: 80, EndNS: 94},
	}
}

func TestLayerTimesSumToRoot(t *testing.T) {
	spans := pollTree()
	got := layerTimes(spans, childIndex(spans), 0)
	want := map[string]int64{"window": 5, "poll": 10, "req": 50, "push": 10, "serve": 3, "full": 8, "sliced": 14}
	var sum int64
	for name, w := range want {
		if got[name] != w {
			t.Errorf("layer %s = %d, want %d", name, got[name], w)
		}
		sum += got[name]
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	if sum != spans[0].dur() {
		t.Errorf("layers sum to %d, root lasts %d", sum, spans[0].dur())
	}
	// Summing the requests instead of uniting them would have made the
	// poll's self time 60 − (25+40+15) < 0.
	if got["poll"] < 0 {
		t.Errorf("poll self time %d: children were summed, not united", got["poll"])
	}
	gap, err := attributionGap(spans)
	if err != nil || gap != 0 {
		t.Errorf("attributionGap = %v, %v", gap, err)
	}
}

func TestUnionLen(t *testing.T) {
	for _, tc := range []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {10, 20}}, 20},
		{[]interval{{5, 8}, {0, 10}}, 10},       // nested
		{[]interval{{0, 4}, {2, 6}, {8, 9}}, 7}, // overlap and gap
		{[]interval{{8, 9}, {2, 6}, {0, 4}}, 7}, // unsorted
		{[]interval{{0, 4}, {0, 4}, {0, 4}}, 4}, // identical
		{[]interval{{0, 10}, {1, 2}, {3, 4}, {9, 12}}, 12},
	} {
		if got := unionLen(tc.ivs); got != tc.want {
			t.Errorf("unionLen(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

func TestAddWithinClampsToParent(t *testing.T) {
	tr := newTracer()
	base := tr.origin
	p := tr.add("serve", 1, -1, base.Add(100), base.Add(200))
	end := tr.addWithin("full", 1, p, base.Add(50), 100) // starts before its parent
	tr.addWithin("sliced", 1, p, end, 500)               // runs past its parent
	if s := tr.spans[1]; s.StartNS != 100 || s.EndNS != 150 {
		t.Errorf("full = [%d,%d), want [100,150)", s.StartNS, s.EndNS)
	}
	if s := tr.spans[2]; s.StartNS != 150 || s.EndNS != 200 {
		t.Errorf("sliced = [%d,%d), want [150,200)", s.StartNS, s.EndNS)
	}
	for name, v := range layerTimes(tr.spans, childIndex(tr.spans), p) {
		if v < 0 {
			t.Errorf("layer %s = %d", name, v)
		}
	}
}

func TestMemDelta(t *testing.T) {
	before := runtime.MemStats{Mallocs: 1000, TotalAlloc: 1 << 20}
	after := runtime.MemStats{Mallocs: 1250, TotalAlloc: 1<<20 + 4096}
	if d := memDelta(&before, &after); d.Mallocs != 250 || d.Bytes != 4096 {
		t.Errorf("memDelta = %+v", d)
	}
}

var sink []byte

func TestAllocMeterBracketsOnlyItsSections(t *testing.T) {
	var m allocMeter
	if a, k := m.perSection(); a == a || k == k { // NaN before any section
		t.Errorf("empty meter reads %v allocs, %v KiB", a, k)
	}
	const sections, size = 4, 64 << 10
	for i := 0; i < sections; i++ {
		sink = make([]byte, 8*size) // outside the bracket: must not count
		m.begin()
		sink = make([]byte, size)
		m.end()
	}
	allocs, kib := m.perSection()
	if allocs < 1 || allocs > 8 {
		t.Errorf("allocs per section = %v, want about 1", allocs)
	}
	if kib < 64 || kib > 128 {
		t.Errorf("KiB per section = %v, want about 64", kib)
	}
}
