package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"foces/internal/core"
	"foces/internal/matrix"
	"foces/internal/topo"
)

// solveParams sizes solve-ft16.
type solveParams struct {
	k     int // fat-tree arity
	group int // service-group width
}

var fullSolve = solveParams{k: 16, group: 32}

// hotRows is how many of the most shared counters a tampered window
// may skim.
const hotRows = 64

// groupTrafficH builds the destination-aggregate flow-counter matrix
// for service-group traffic on t, as internal/experiment/sparse.go
// does (its builder is unexported): hosts are split into consecutive
// groups, every host sends to every other member of its group, rows
// are one ingress rule per source host plus one rule per (switch on
// the path, destination host), columns the intra-group ordered pairs.
// A rule is shared by at most group−1 flows, which keeps the Gram
// sparse while columns grow as hosts×(group−1).
func groupTrafficH(t *topo.Topology, group int) (*matrix.CSR, error) {
	hosts := t.Hosts()
	if group > len(hosts) {
		group = len(hosts)
	}
	type ruleKey struct {
		sw  topo.SwitchID
		dst int // destination host index, or -1-source index for ingress rules
	}
	rowOf := make(map[ruleKey]int)
	row := func(k ruleKey) int {
		r, ok := rowOf[k]
		if !ok {
			r = len(rowOf)
			rowOf[k] = r
		}
		return r
	}
	paths := make(map[[2]topo.SwitchID][]topo.SwitchID)
	var trips []matrix.Triplet
	col := 0
	for base := 0; base < len(hosts); base += group {
		end := base + group
		if end > len(hosts) {
			end = len(hosts)
		}
		for si := base; si < end; si++ {
			src := hosts[si]
			ingress := row(ruleKey{sw: src.Attach, dst: -1 - si})
			for di := base; di < end; di++ {
				if di == si {
					continue
				}
				pk := [2]topo.SwitchID{src.Attach, hosts[di].Attach}
				path, ok := paths[pk]
				if !ok {
					var err error
					if path, err = t.ShortestPath(pk[0], pk[1]); err != nil {
						return nil, err
					}
					paths[pk] = path
				}
				trips = append(trips, matrix.Triplet{Row: ingress, Col: col, Val: 1})
				for _, sw := range path {
					trips = append(trips, matrix.Triplet{Row: row(ruleKey{sw: sw, dst: di}), Col: col, Val: 1})
				}
				col++
			}
		}
	}
	return matrix.NewCSR(len(rowOf), col, trips)
}

// solveChain is solve-ft16: one prepared full engine and nothing else.
type solveChain struct {
	h   *matrix.CSR
	det *core.Detector
	rng *rand.Rand
	hot []int // the most shared counters, most shared first
	x   []float64
	y   []float64

	tr      *tracer
	traceOn bool
}

// newSolveChain builds H and prepares the engine: everything setup_s
// covers on this workload.
func newSolveChain(p solveParams, seed int64, tr *tracer, m map[string]float64) (*solveChain, error) {
	t, err := topo.FatTree(p.k)
	if err != nil {
		return nil, err
	}
	h, err := groupTrafficH(t, p.group)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	det, err := core.NewDetector(h, core.Options{})
	if err != nil {
		return nil, err
	}
	end := time.Now()
	tr.add("core.full_prepare", 0, -1, start, end)
	m["core.full_prepare_ms"] = ms(end.Sub(start))
	c := &solveChain{
		h:   h,
		det: det,
		rng: rand.New(rand.NewSource(seed)),
		x:   make([]float64, h.Cols()),
		y:   make([]float64, h.Rows()),
		tr:  tr,
	}
	c.hot = make([]int, h.Rows())
	for i := range c.hot {
		c.hot[i] = i
	}
	sort.SliceStable(c.hot, func(a, b int) bool { return h.RowNNZ(c.hot[a]) > h.RowNNZ(c.hot[b]) })
	if len(c.hot) > hotRows {
		c.hot = c.hot[:hotRows]
	}
	return c, nil
}

func (c *solveChain) close() {}

func (c *solveChain) setTracing(on bool) { c.traceOn = on && c.tr != nil }

func (c *solveChain) layerCounts(m map[string]float64) { prepareStats(c.det.PrepareStats(), m) }

func (c *solveChain) prime() error { return nil }

// window i solves one vector: y = H·x for seeded volumes x, with half
// the traffic skimmed off one heavily shared counter on odd windows.
// The answers are known: the first must read clean, the second must
// trip. (A cold reference solve would cost a factorisation a window.)
func (c *solveChain) window(i int, meter *allocMeter) (windowRec, error) {
	var rec windowRec
	rec.attacked = i%2 == 1
	genStart := time.Now()
	for j := range c.x {
		c.x[j] = float64(500 + c.rng.Intn(1000))
	}
	if err := c.h.MulVecInto(c.y, c.x); err != nil {
		return rec, err
	}
	// Drawn every window, so the sequence does not depend on parity.
	victim := c.hot[c.rng.Intn(len(c.hot))]
	if rec.attacked {
		c.y[victim] *= 0.5
	}
	rec.trafficMS = ms(time.Since(genStart))

	if meter != nil {
		meter.begin()
	}
	start := time.Now()
	res, err := c.det.Detect(c.y)
	end := time.Now()
	if meter != nil {
		meter.end()
	}
	if err != nil {
		return rec, fmt.Errorf("window %d: detect: %w", i, err)
	}
	rec.latencyMS = ms(end.Sub(start))
	rec.fullMS = rec.latencyMS
	rec.runTotalMS = rec.latencyMS
	rec.fullAnom = res.Anomalous
	if c.traceOn {
		w := c.tr.add("window", i, -1, start, end)
		c.tr.add("core.detect", i, w, start, end)
	}
	if res.Anomalous != rec.attacked {
		rec.failure = fmt.Sprintf("verdict %v (AI %.6g) on a window whose known answer is %v", res.Anomalous, res.Index, rec.attacked)
	}
	return rec, nil
}
