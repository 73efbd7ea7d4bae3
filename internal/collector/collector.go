// Package collector implements FOCES' statistics collection plane: it
// periodically queries every switch agent over the control channel for
// rule counters, merges them into the counter vector Y', and models
// the out-of-sync polling noise that §IV-A's threshold derivation
// assumes (Y'(i) ~ N(Y0(i), σ²)).
package collector

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"foces/internal/controller"
	"foces/internal/dataplane"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/openflow"
	"foces/internal/topo"
)

// Collector polls switch agents for statistics.
type Collector struct {
	clients map[topo.SwitchID]*openflow.Client
}

// New builds a collector over per-switch control clients.
func New(clients map[topo.SwitchID]*openflow.Client) *Collector {
	cp := make(map[topo.SwitchID]*openflow.Client, len(clients))
	for sw, c := range clients {
		cp[sw] = c
	}
	return &Collector{clients: cp}
}

// sortedSwitches returns the collector's switch IDs in ascending
// order, the deterministic iteration order for result merging and
// error reporting.
func (c *Collector) sortedSwitches() []topo.SwitchID {
	order := make([]topo.SwitchID, 0, len(c.clients))
	for sw := range c.clients {
		order = append(order, sw)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return order
}

// CollectCounters polls every switch concurrently and merges rule
// counters by global rule ID. Failures are reported deterministically —
// the error names the lowest-ID failing switch regardless of goroutine
// scheduling — and the counters already received from healthy switches
// are returned alongside the error rather than discarded. A rule ID
// reported by more than one switch is an integrity violation (a
// compromised switch could shadow another's counters with a forged
// reply); it is surfaced as an error naming both switches, with the
// lowest switch ID's value kept.
func (c *Collector) CollectCounters() (map[int]uint64, error) {
	type result struct {
		reply *openflow.FlowStatsReply
		err   error
	}
	results := make(map[topo.SwitchID]result, len(c.clients))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for sw, client := range c.clients {
		wg.Add(1)
		go func(sw topo.SwitchID, client *openflow.Client) {
			defer wg.Done()
			reply, err := client.FlowStats()
			mu.Lock()
			results[sw] = result{reply: reply, err: err}
			mu.Unlock()
		}(sw, client)
	}
	wg.Wait()
	out := make(map[int]uint64)
	owner := make(map[int]topo.SwitchID)
	var firstErr, dupErr error
	for _, sw := range c.sortedSwitches() {
		r := results[sw]
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("collector: switch %d: %w", sw, r.err)
			}
			continue
		}
		for _, s := range r.reply.Stats {
			if prev, dup := owner[s.RuleID]; dup {
				if dupErr == nil {
					dupErr = fmt.Errorf("collector: rule %d reported by both switch %d and switch %d (counter shadowing)", s.RuleID, prev, sw)
				}
				continue
			}
			owner[s.RuleID] = sw
			out[s.RuleID] = s.Packets
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	return out, dupErr
}

// CollectCountersTolerant polls every switch like CollectCounters but
// tolerates per-switch failures: counters from unreachable switches
// are simply absent and their IDs are reported, so detection can
// proceed with those switches' rule rows masked
// (foces.RunOptions.Missing). It errors only when no switch answered
// at all.
func (c *Collector) CollectCountersTolerant() (map[int]uint64, []topo.SwitchID, error) {
	type result struct {
		sw    topo.SwitchID
		reply *openflow.FlowStatsReply
		err   error
	}
	results := make(chan result, len(c.clients))
	var wg sync.WaitGroup
	for sw, client := range c.clients {
		wg.Add(1)
		go func(sw topo.SwitchID, client *openflow.Client) {
			defer wg.Done()
			reply, err := client.FlowStats()
			results <- result{sw: sw, reply: reply, err: err}
		}(sw, client)
	}
	wg.Wait()
	close(results)
	out := make(map[int]uint64)
	var missing []topo.SwitchID
	answered := 0
	for r := range results {
		if r.err != nil {
			missing = append(missing, r.sw)
			continue
		}
		answered++
		for _, s := range r.reply.Stats {
			out[s.RuleID] = s.Packets
		}
	}
	if answered == 0 && len(c.clients) > 0 {
		return nil, nil, fmt.Errorf("collector: no switch answered the poll")
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	return out, missing, nil
}

// CollectPortStats polls every switch's port counters. Port vectors
// are sized by the highest port number reported — a switch whose ports
// are not contiguous from zero keeps every counter instead of silently
// dropping the high ones — and a negative port number is an error
// rather than a silent skip. Errors are reported deterministically
// (lowest failing switch ID) and the stats already received from
// healthy switches are returned alongside the error.
func (c *Collector) CollectPortStats() (map[topo.SwitchID]dataplane.PortCounters, error) {
	type result struct {
		reply *openflow.PortStatsReply
		err   error
	}
	results := make(map[topo.SwitchID]result, len(c.clients))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for sw, client := range c.clients {
		wg.Add(1)
		go func(sw topo.SwitchID, client *openflow.Client) {
			defer wg.Done()
			reply, err := client.PortStats()
			mu.Lock()
			results[sw] = result{reply: reply, err: err}
			mu.Unlock()
		}(sw, client)
	}
	wg.Wait()
	out := make(map[topo.SwitchID]dataplane.PortCounters, len(c.clients))
	var firstErr error
	for _, sw := range c.sortedSwitches() {
		r := results[sw]
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("collector: switch %d: %w", sw, r.err)
			}
			continue
		}
		maxPort := -1
		badPort := false
		for _, s := range r.reply.Stats {
			if s.Port < 0 {
				if firstErr == nil {
					firstErr = fmt.Errorf("collector: switch %d reported out-of-range port %d", sw, s.Port)
				}
				badPort = true
				break
			}
			if s.Port > maxPort {
				maxPort = s.Port
			}
		}
		if badPort {
			continue
		}
		pc := dataplane.PortCounters{
			Rx: make([]uint64, maxPort+1),
			Tx: make([]uint64, maxPort+1),
		}
		for _, s := range r.reply.Stats {
			pc.Rx[s.Port] = s.Rx
			pc.Tx[s.Port] = s.Tx
		}
		out[sw] = pc
	}
	return out, firstErr
}

// ApplyNoise adds zero-mean Gaussian read noise with the given sigma
// to a counter vector, clamped at zero, modelling out-of-sync counter
// polling. It returns a new vector.
func ApplyNoise(y []float64, sigma float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		nv := v
		if sigma > 0 {
			nv += rng.NormFloat64() * sigma
		}
		if nv < 0 {
			nv = 0
		}
		out[i] = nv
	}
	return out
}

// ApplySkew models non-atomic statistics collection: switches are
// polled sequentially within each polling round while traffic keeps
// flowing, so a switch's counters are ahead by rate × polling offset.
// Because the collector visits switches in the same order every round,
// the systematic offset cancels across windowed counter deltas; what
// survives is the round's timing *jitter*. Every switch therefore
// draws one bounded factor (1 + U(−rel, rel)) applied coherently to
// all of its counters (rel = round jitter / collection window; a
// ±25 ms jitter on a 5 s window gives rel ≈ 0.005). Bounded jitter
// keeps the noise-only anomaly index near 2 — the paper's Fig. 7
// quiet-period level — whereas Gaussian noise would pin it at the
// folded-normal max/median ratio ≈ 4.5 regardless of magnitude.
// ruleSwitch maps each counter index to its switch.
func ApplySkew(y []float64, ruleSwitch []topo.SwitchID, rel float64, rng *rand.Rand) ([]float64, error) {
	if len(y) != len(ruleSwitch) {
		return nil, fmt.Errorf("collector: skew needs a switch per counter: %d vs %d", len(y), len(ruleSwitch))
	}
	factors := make(map[topo.SwitchID]float64)
	out := make([]float64, len(y))
	for i, v := range y {
		nv := v
		if rel > 0 {
			f, ok := factors[ruleSwitch[i]]
			if !ok {
				f = 1 + (2*rng.Float64()-1)*rel
				factors[ruleSwitch[i]] = f
			}
			nv *= f
		}
		if nv < 0 {
			nv = 0
		}
		out[i] = nv
	}
	return out, nil
}

// InstallRules pushes controller rules to the switch agents over the
// control channel (the FlowMod path), in rule-ID order.
func InstallRules(clients map[topo.SwitchID]*openflow.Client, rules []flowtable.Rule) error {
	ordered := make([]flowtable.Rule, len(rules))
	copy(ordered, rules)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	for _, r := range ordered {
		client, ok := clients[r.Switch]
		if !ok {
			return fmt.Errorf("collector: no control channel to switch %d", r.Switch)
		}
		if err := client.InstallRule(r); err != nil {
			return fmt.Errorf("collector: install rule %d: %w", r.ID, err)
		}
	}
	return nil
}

// WireReactive connects a controller to the network's packet-in path
// through the control channel: a table miss invokes the controller's
// reactive installer, whose rules travel to the switches as FlowMods
// before the lookup retries — reactive Floodlight forwarding over the
// wire (§II-A). The controller must be in PairExact mode.
func WireReactive(network *dataplane.Network, h *Harness, ctrl *controller.Controller) (*controller.ReactiveInstaller, error) {
	installer, err := controller.NewReactiveInstaller(ctrl, func(r flowtable.Rule) error {
		client, ok := h.Clients[r.Switch]
		if !ok {
			return fmt.Errorf("collector: no control channel to switch %d", r.Switch)
		}
		return client.InstallRule(r)
	})
	if err != nil {
		return nil, err
	}
	network.SetMissHandler(installer.Handler())
	return installer, nil
}

// ReactiveChannelStats counts the failures of the wire-reactive path
// that must not block a packet release but also must not vanish: a
// stalled packet-in is undebuggable if the errors behind it were
// silently discarded.
type ReactiveChannelStats struct {
	installErrs atomic.Uint64
	releaseErrs atomic.Uint64
}

// InstallErrors reports handler failures to compute/install pair rules.
func (s *ReactiveChannelStats) InstallErrors() uint64 { return s.installErrs.Load() }

// ReleaseErrors reports failed TypePacketOut releases.
func (s *ReactiveChannelStats) ReleaseErrors() uint64 { return s.releaseErrs.Load() }

// WireReactiveChannel is WireReactive taken all the way to the wire:
// a table miss raises a TypePacketIn frame from the switch agent to
// its controller client, whose handler computes the pair rules,
// installs them network-wide via FlowMods, and releases the packet
// with a TypePacketOut echoing the packet-in's XID. The data-plane
// lookup then retries. This is the full reactive-Floodlight round trip
// over the control channel. Install and release failures do not stall
// the release path (the switch retries and re-raises on the next
// interval) but are counted in the returned stats.
func WireReactiveChannel(network *dataplane.Network, h *Harness, ctrl *controller.Controller) (*controller.ReactiveInstaller, *ReactiveChannelStats, error) {
	installer, err := controller.NewReactiveInstaller(ctrl, func(r flowtable.Rule) error {
		client, ok := h.Clients[r.Switch]
		if !ok {
			return fmt.Errorf("collector: no control channel to switch %d", r.Switch)
		}
		return client.InstallRule(r)
	})
	if err != nil {
		return nil, nil, err
	}
	stats := &ReactiveChannelStats{}
	handle := installer.Handler()
	for _, client := range h.Clients {
		client := client
		client.SetPacketInHandler(func(pi *openflow.PacketIn, xid uint32) {
			// Install errors leave the pair uninstalled; the release
			// still goes out so the switch retries (and re-raises on the
			// next interval) instead of stalling on the timeout.
			if err := handle(pi.Switch, pi.Packet); err != nil {
				stats.installErrs.Add(1)
			}
			if err := client.SendPacketOut(xid); err != nil {
				stats.releaseErrs.Add(1)
			}
		})
	}
	network.SetMissHandler(func(sw topo.SwitchID, pkt header.Packet) error {
		agent, ok := h.Agents[sw]
		if !ok {
			return fmt.Errorf("collector: no agent for switch %d", sw)
		}
		return agent.RaisePacketIn(-1, pkt, 0)
	})
	return installer, stats, nil
}

// Harness wires a complete in-memory control plane over a simulated
// data plane: one agent per switch served over a net.Pipe, one client
// per switch, and a collector over all clients.
type Harness struct {
	Clients   map[topo.SwitchID]*openflow.Client
	Agents    map[topo.SwitchID]*openflow.Agent
	Collector *Collector

	agents []*openflow.Agent
}

// NewHarness starts agents and clients for every switch in the
// network. Callers must Close the harness to stop the agents.
func NewHarness(network *dataplane.Network) (*Harness, error) {
	h := &Harness{
		Clients: make(map[topo.SwitchID]*openflow.Client),
		Agents:  make(map[topo.SwitchID]*openflow.Agent),
	}
	for _, s := range network.Topology().Switches() {
		agent, err := openflow.NewAgent(network, s.ID)
		if err != nil {
			h.Close()
			return nil, err
		}
		agentEnd, clientEnd := net.Pipe()
		agent.Go(agentEnd)
		h.agents = append(h.agents, agent)
		h.Agents[s.ID] = agent
		client := openflow.NewClient(clientEnd, 0)
		if err := client.Hello(); err != nil {
			h.Close()
			return nil, fmt.Errorf("collector: handshake with switch %d: %w", s.ID, err)
		}
		h.Clients[s.ID] = client
	}
	h.Collector = New(h.Clients)
	return h, nil
}

// Close stops all clients and agents.
func (h *Harness) Close() {
	for _, c := range h.Clients {
		// Closing the pipe ends the agent session; the agent's Close
		// below waits for its goroutines.
		_ = c.Close()
	}
	for _, a := range h.agents {
		a.Close()
	}
}
