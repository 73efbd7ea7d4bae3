package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the number is one or two slow windows, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples: the smallest value with at least p% of the samples at or
// below it. It refuses a percentile that fewer than minBeyond samples
// lie beyond.
func percentile(samples []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return nearestRank(samples, p), nil
}

// nearestRank is percentile without the refusal; samples must not be
// empty.
func nearestRank(samples []float64, p float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the nearest-rank median of a non-empty sample set; it is
// for set-up repeats and -repeat summaries, where two or three values
// are all there is. Window timings go through percentile.
func median(samples []float64) float64 { return nearestRank(samples, 50) }

// span is one traced interval at a layer boundary. Parent indexes the
// run's span list (-1 for a root); Window groups the spans of one
// window (0 for set-up spans).
type span struct {
	Name    string `json:"name"`
	Window  int    `json:"window"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

type interval struct{ lo, hi int64 }

// unionLen is the total length the intervals cover, overlaps counted
// once.
func unionLen(ivs []interval) int64 {
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].lo < sorted[j].lo })
	var total int64
	end := int64(math.MinInt64)
	for _, iv := range sorted {
		if iv.hi <= end {
			continue
		}
		if iv.lo < end {
			iv.lo = end
		}
		total += iv.hi - iv.lo
		end = iv.hi
	}
	return total
}

// childIndex maps each span to the indexes of its direct children.
func childIndex(spans []span) map[int][]int {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

func intervalsOf(spans []span, idx []int) []interval {
	ivs := make([]interval, len(idx))
	for k, i := range idx {
		ivs[k] = interval{spans[i].StartNS, spans[i].EndNS}
	}
	return ivs
}

// layerTimes attributes the time under root to layers, by span name: a
// layer's self time is what its spans cover minus what their children
// cover. Siblings of one name form one layer, and covered time is the
// union of the intervals, not their sum, so the 80 overlapping requests
// under one poll count the wall time they block, once. Children must lie
// inside their parents (the recorder clamps the spans it reconstructs);
// the values then sum to the root's duration as long as layers of
// different names do not overlap. kids is childIndex(spans).
func layerTimes(spans []span, kids map[int][]int, root int) map[string]int64 {
	out := make(map[string]int64)
	var walk func(group []int)
	walk = func(group []int) {
		var below []int
		for _, i := range group {
			below = append(below, kids[i]...)
		}
		out[spans[group[0]].Name] += unionLen(intervalsOf(spans, group)) - unionLen(intervalsOf(spans, below))
		byName := make(map[string][]int)
		var order []string
		for _, k := range below {
			n := spans[k].Name
			if _, seen := byName[n]; !seen {
				order = append(order, n)
			}
			byName[n] = append(byName[n], k)
		}
		for _, n := range order {
			walk(byName[n])
		}
	}
	walk([]int{root})
	return out
}

// allocDelta is what the process allocated between two MemStats
// readings.
type allocDelta struct {
	Mallocs uint64
	Bytes   uint64
}

// allocMeter brackets sections of code with runtime.ReadMemStats and
// accumulates what they allocated. ReadMemStats stops the world, so
// the meter runs in a pass of its own, never in the timed one.
type allocMeter struct {
	before runtime.MemStats
	after  runtime.MemStats
	total  allocDelta
	n      int
}

func (m *allocMeter) begin() { runtime.ReadMemStats(&m.before) }

func (m *allocMeter) end() {
	runtime.ReadMemStats(&m.after)
	d := memDelta(&m.before, &m.after)
	m.total.Mallocs += d.Mallocs
	m.total.Bytes += d.Bytes
	m.n++
}

// perSection returns the mean allocation count and KiB per bracketed
// section.
func (m *allocMeter) perSection() (allocs, kib float64) {
	if m.n == 0 {
		return math.NaN(), math.NaN()
	}
	return float64(m.total.Mallocs) / float64(m.n), float64(m.total.Bytes) / 1024 / float64(m.n)
}

func memDelta(before, after *runtime.MemStats) allocDelta {
	return allocDelta{
		Mallocs: after.Mallocs - before.Mallocs,
		Bytes:   after.TotalAlloc - before.TotalAlloc,
	}
}
