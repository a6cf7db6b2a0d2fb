package exp

import (
	"fmt"

	"netfence"
	"netfence/internal/attack"
	"netfence/internal/core"
)

// strategicLineup is the §6.3 adaptive-adversary lineup: every in-tree
// attack strategy, from the plain flood to the policer-aware shapes.
var strategicLineup = []string{"flood", "onoff-sync", "request-prio", "replay", "legacy-flood"}

// strategicNu is the assumed transport efficiency ν discounting the
// Theorem-1 rate-limit bound to a goodput floor (BoundProbe's default).
const strategicNu = attack.DefaultNu

// Strategic pits every in-tree attack strategy (the fixed
// strategicLineup, so the figure is reproducible regardless of what
// third parties register) against every compared defense on the §6.3.1
// dumbbell: 25% long-running TCP users against 75%
// attackers driving the strategy at colluding receivers. Each cell's
// legitimate goodput is compared with the Theorem-1 floor ν·ρ·C/(G+B) —
// the share the paper guarantees a legitimate sender keeps regardless of
// the attackers' strategy. The paper's claim, measured: NetFence clears
// the floor for every strategy, while the baselines (TVA+ against
// colluders foremost) fall below it under at least one.
func Strategic(sc Scale) Result {
	label := sc.Labels[0]
	bottleneck := sc.BottleneckBps(label)
	floor := strategicNu * attack.TheoremBound(core.DefaultConfig(), bottleneck, sc.Senders)
	res := Result{
		Name: "Strategic attacks",
		Title: fmt.Sprintf("legit goodput vs the Theorem-1 floor ν·ρ·C/(G+B) = %.0f kbps (%dK senders)",
			floor/1000, label/1000),
		Columns: []string{"strategy", "system", "legit kbps", "attacker kbps", "floor kbps", "holds"},
	}
	for _, strat := range strategicLineup {
		for _, kind := range sc.Compared() {
			c := strategicCell(sc, label, kind, strat, nil)
			res.AddRow(
				strat,
				string(kind),
				fmt.Sprintf("%.0f", c.legitBps/1000),
				fmt.Sprintf("%.0f", c.atkBps/1000),
				fmt.Sprintf("%.0f", floor/1000),
				fmt.Sprintf("%v", c.legitBps >= floor),
			)
		}
	}
	res.Note("Theorem 1 bounds the rate LIMIT at ρ·C/(G+B), ρ=(1-δ)³=0.729; the goodput floor discounts it by an assumed TCP efficiency ν=%.1f", strategicNu)
	res.Note("paper shape: NetFence holds the floor under every strategy; TVA+ falls below it against colluder floods (capabilities granted), and replay/legacy shapes are demoted to the request/legacy channels")
	return res
}

// strategicCell runs one (strategy, system) cell: the fig9 collusion
// split with the attackers driven by the attack subsystem instead of
// static UDP sources. params overrides the strategy's tunable
// parameters (nil = the hand-written defaults) — the worst-case
// search's evaluation surface.
func strategicCell(sc Scale, label int, kind SystemKind, stratName string, params map[string]float64) fig9Out {
	return fig9Of(sc.run(strategicScenario(sc, label, kind, stratName, params)))
}

// strategicScenario declares a strategicCell, for batches run together.
func strategicScenario(sc Scale, label int, kind SystemKind, stratName string, params map[string]float64) netfence.Scenario {
	users, attackers := splitSenders(sc.Senders, quarterUsers)
	return netfence.Scenario{
		Topology: sc.dumbbell(label),
		Defense:  netfence.Defense(string(kind)),
		// Colluding receivers do not identify attack traffic: no Deny.
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: users},
			netfence.AttackSpec{Strategy: stratName, Params: params, Senders: attackers, RateBps: 1_000_000, ToColluders: true},
		},
	}
}
