// Package collector implements FOCES' statistics collection plane: it
// turns switch rule counters into detection windows — the counter
// vector Y' of one collection period — and models the out-of-sync
// polling noise that §IV-A's threshold derivation assumes
// (Y'(i) ~ N(Y0(i), σ²)).
//
// There is one window producer. RobustCollector.PollSnapshots fetches
// cumulative per-switch snapshots under deadlines, retries and a
// health state machine; a WindowAssembler differences them into
// per-window deltas (through its DeltaTracker), finds counter resets,
// shadowed rules and epoch straddles, and emits completed Windows for
// foces.System.Serve.
package collector

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync/atomic"

	"foces/internal/controller"
	"foces/internal/dataplane"
	"foces/internal/flowtable"
	"foces/internal/header"
	"foces/internal/openflow"
	"foces/internal/topo"
)

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
// data plane: one agent per switch served over a net.Pipe and one
// client per switch.
type Harness struct {
	Clients map[topo.SwitchID]*openflow.Client
	Agents  map[topo.SwitchID]*openflow.Agent

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
