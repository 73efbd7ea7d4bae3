package foces

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"foces/internal/core"
	"foces/internal/probe"
)

// This file wires the active-probe localization subsystem
// (internal/probe) into the Run → Report surface. Detection answers
// "is forwarding anomalous"; localization answers "which rule on which
// switch". When an Observation carries a LocalizeConfig and the
// window's verdict is anomalous, Run takes the suspect set (the sliced
// engine's ranking, or the full engine's error-mass attribution),
// synthesizes test probes from the FCM's symbolic flow classes,
// injects them through the data plane under a probe budget, and
// attaches the ranked culprit report to Report.Localization. A nil
// LocalizeConfig skips all of it — the detection path is untouched.

// DefaultMaxSuspects is how many top error-mass switches seed the
// probe suspect set when the sliced engine produced no ranking of its
// own.
const DefaultMaxSuspects = 4

// ProbeInjector injects one synthesized probe into the data plane and
// reports the counter movement it caused. The default implementation
// probes the system's own simulated network; an OpenFlow deployment
// would implement it over PacketOut + paired flow-stats reads.
type ProbeInjector = probe.Injector

// ProbeSpec is one synthesized test probe (flow class, concrete
// header, injection point, expected rule history).
type ProbeSpec = probe.Spec

// ProbeObservation is what an injector measured for one probe.
type ProbeObservation = probe.Observation

// ProbeCulprit is one accused rule in the ranked localization report.
type ProbeCulprit = probe.Culprit

// ProbeOutcome is the probe subsystem's raw localization outcome,
// embedded in Localization.
type ProbeOutcome = probe.Outcome

// ProbeBudget returns the probe budget localization grants a suspect
// rule set of the given size: ceil(log2(n)) + 2.
func ProbeBudget(suspectRules int) int { return probe.Budget(suspectRules) }

// NewProbeInjector builds the default dataplane-backed probe injector
// over a network — what a nil LocalizeConfig.Injector resolves to,
// exported for callers probing a network other than the system's own.
func NewProbeInjector(net *Network, rng *rand.Rand) ProbeInjector {
	return probe.NewNetworkInjector(net, rng)
}

// LocalizeConfig opts a Run into active-probe localization. The zero
// value of every field selects a sensible default; the nil pointer
// disables localization entirely (and costs the detection path
// nothing).
type LocalizeConfig struct {
	// Injector overrides how probes reach the data plane. Nil probes
	// the system's own network directly.
	Injector ProbeInjector
	// MaxProbes caps probes per localization; zero grants
	// ProbeBudget(|suspect rules|).
	MaxProbes int
	// Volume is the packet count per probe (zero: probe.DefaultVolume).
	Volume uint64
	// Deadline bounds each probe's inject-and-read round trip (zero:
	// probe.DefaultDeadline).
	Deadline time.Duration
	// MinConfidence is the accusation confidence at which probing stops
	// (zero: probe.DefaultMinConfidence).
	MinConfidence float64
	// MaxSuspects caps how many switches seed the suspect set when it
	// is derived from full-engine error attribution rather than the
	// sliced ranking (zero: DefaultMaxSuspects).
	MaxSuspects int
	// Seed makes the default injector's loss draws deterministic.
	Seed int64
}

// Localization is the ranked culprit report a localizing Run attaches
// to its Report. It embeds the probe subsystem's outcome; Error is set
// (and the rest zero-valued) when probing itself failed — the
// detection verdict in the surrounding Report stands either way.
type Localization struct {
	probe.Outcome
	// Error describes a localization failure (no suspects, injector
	// breakdown); empty on success.
	Error string `json:"error,omitempty"`
}

// maybeLocalize runs active-probe localization for an anomalous report
// when the observation opted in. Called under baselineMu's read side,
// after the detection stages have filled the report; it sets
// rep.Localization and rep.Timings.Localize (which the caller folds
// into Total).
func (s *System) maybeLocalize(obs Observation, rep *Report) {
	if obs.Localize == nil || !rep.Anomalous {
		return
	}
	t0 := time.Now()
	loc := Localization{}
	out, err := s.localizeLocked(obs.Localize, rep)
	loc.Outcome = out
	if err != nil {
		loc.Error = err.Error()
	}
	rep.Timings.Localize = time.Since(t0)
	rep.Localization = &loc
	s.recordLocalization(&loc)
}

// localizeLocked builds the probe localizer over the current baseline
// and runs it against the report's suspect set.
func (s *System) localizeLocked(cfg *LocalizeConfig, rep *Report) (probe.Outcome, error) {
	suspects, ruleErr := s.suspectSet(cfg, rep)
	if len(suspects) == 0 {
		return probe.Outcome{}, fmt.Errorf("foces: localization has no suspect set (no sliced ranking and no full-engine delta)")
	}
	inj := cfg.Injector
	if inj == nil {
		inj = probe.NewNetworkInjector(s.network, rand.New(rand.NewSource(cfg.Seed+1)))
	}
	loc, err := probe.New(s.fcm, inj, probe.Config{
		MaxProbes:     cfg.MaxProbes,
		Volume:        cfg.Volume,
		Deadline:      cfg.Deadline,
		MinConfidence: cfg.MinConfidence,
	})
	if err != nil {
		return probe.Outcome{}, err
	}
	return loc.Localize(context.Background(), suspects, ruleErr)
}

// suspectSet resolves the switch suspect set and per-rule error mass a
// localization starts from: the sliced engine's ranking unioned with
// the top error-mass switches from the residual vector
// (core.AttributeDelta over Δ = |Y' − Ŷ|), so the set covers both the
// hops whose counters moved and the switch whose rule lost the
// traffic.
func (s *System) suspectSet(cfg *LocalizeConfig, rep *Report) ([]SwitchID, []float64) {
	// Fold every engine's residual vector into one per-rule error mass,
	// keeping each rule's largest residual across engines. The full
	// engine's global fit can absorb an anomaly that shared aggregate
	// rules let it re-attribute across co-riding flows, while the same
	// anomaly shows up hard in the misfitting switch's slice-local
	// residual — and vice versa on windows where only the full engine
	// ran. Taking the max keeps whichever engine actually saw the mass.
	var ruleErr []float64
	fold := func(rid int, d float64) {
		if ruleErr == nil {
			ruleErr = make([]float64, s.fcm.NumRules())
		}
		if d < 0 {
			d = -d
		}
		if rid >= 0 && rid < len(ruleErr) && d > ruleErr[rid] {
			ruleErr[rid] = d
		}
	}
	if rep.Full != nil {
		for rid, d := range rep.Full.Delta {
			fold(rid, d)
		}
	}
	if rep.Sliced != nil {
		// Per-slice deltas are positional over each slice's RuleRows.
		bySwitch := make(map[SwitchID]*Slice, len(s.slices))
		for i := range s.slices {
			bySwitch[s.slices[i].Switch] = &s.slices[i]
		}
		for _, sr := range rep.Sliced.PerSwitch {
			sl := bySwitch[sr.Switch]
			if sl == nil {
				continue
			}
			for i, rid := range sl.RuleRows {
				if i >= len(sr.Result.Delta) {
					break
				}
				fold(rid, sr.Result.Delta[i])
			}
		}
	}
	k := cfg.MaxSuspects
	if k <= 0 {
		k = DefaultMaxSuspects
	}
	var ranked []SwitchID
	if ruleErr != nil {
		ranked = core.TopSuspects(core.AttributeDelta(s.fcm, ruleErr), k)
	}
	if len(rep.Suspects) == 0 {
		return ranked, ruleErr
	}
	// Union the sliced ranking with the error-mass ranking: per-slice
	// indices flag the switches whose counters moved (the starved or
	// detoured hops downstream of the compromise), while the residual
	// attribution also implicates the compromised switch itself — its
	// rule counted the traffic its action lost, so the least-squares
	// fit leaves mass on it even when its own slice still fits. Probing
	// needs the culprit's rules in the suspect set, so take both.
	suspects := append([]SwitchID(nil), rep.Suspects...)
	seen := make(map[SwitchID]bool, len(suspects))
	for _, sw := range suspects {
		seen[sw] = true
	}
	for _, sw := range ranked {
		if !seen[sw] {
			suspects = append(suspects, sw)
			seen[sw] = true
		}
	}
	return suspects, ruleErr
}
