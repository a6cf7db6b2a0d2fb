package exp

import (
	"fmt"
	"hash/fnv"

	"netfence"
	"netfence/internal/attack"
	"netfence/internal/core"
	"netfence/internal/search"
)

// worstcaseSearchLineup is the subset of strategies the experiment
// searches: the two whose parameter spaces carry the most damage
// headroom (raw rate against capability-granting baselines, duty-cycle
// timing against the policer). The hand-written baseline still spans
// the full strategicLineup.
var worstcaseSearchLineup = []string{"flood", "onoff-sync"}

// worstcaseBudget caps evaluated candidates per (system × strategy)
// cell — small enough for the bench suite, large enough for the
// annealer to leave the defaults.
const worstcaseBudget = 6

// WorstCase is the adversarial-search experiment: for each compared
// defense it contrasts the worst hand-written strategy (the fixed
// strategicLineup at its defaults — PR 3's instantiation of "regardless
// of strategy") with the worst configuration a seeded annealer finds in
// the strategies' declared parameter spaces. The paper's Theorem-1
// claim survives the upgrade for NetFence — the searched optimum still
// clears the goodput floor — while the searched attack pushes the
// baselines (TVA+ against colluders foremost) strictly below their
// hand-written worst case.
func WorstCase(sc Scale) Result {
	label := sc.Labels[0]
	bottleneck := sc.BottleneckBps(label)
	floor := strategicNu * attack.TheoremBound(core.DefaultConfig(), bottleneck, sc.Senders)
	res := Result{
		Name: "Worst-case search",
		Title: fmt.Sprintf("hand-written vs searched worst attack, floor ν·ρ·C/(G+B) = %.0f kbps (%dK senders)",
			floor/1000, label/1000),
		Columns: []string{"system", "hand-written worst", "hand kbps", "searched worst", "searched kbps", "suppress", "holds"},
	}
	for _, kind := range sc.Compared() {
		// The hand-written baseline: every lineup strategy at defaults.
		hand := make([]netfence.Scenario, len(strategicLineup))
		for i, strat := range strategicLineup {
			hand[i] = strategicScenario(sc, label, kind, strat, nil)
		}
		handRates := make([]float64, len(hand))
		for i, res := range sc.runAll(hand) {
			handRates[i] = res.UserBps
		}
		handWorst := 0
		for i := 1; i < len(handRates); i++ {
			if handRates[i] < handRates[handWorst] {
				handWorst = i
			}
		}

		// The searched worst: anneal each search-lineup strategy's space.
		searchedSpec, searchedLegit := "", 0.0
		for si, strat := range worstcaseSearchLineup {
			dims, err := attack.Params(strat)
			if err != nil {
				panic(err) // fixed in-tree lineup: a programmer error
			}
			opt, _ := search.New("anneal")
			eval := func(batch []search.Vec) ([]float64, error) {
				cells := make([]netfence.Scenario, len(batch))
				for i, v := range batch {
					cells[i] = strategicScenario(sc, label, kind, strat, v.Params(dims))
				}
				damages := make([]float64, len(batch))
				for i, res := range sc.runAll(cells) {
					damages[i] = -res.UserBps
				}
				return damages, nil
			}
			best, trace, err := opt.Run(dims, worstcaseBudget, worstcaseSeed(sc.Seed, kind, strat), eval)
			if err != nil {
				panic(err) // eval never errors; optimizer failures are programmer errors
			}
			bestLegit := 0.0
			for _, st := range trace {
				if st.Best {
					bestLegit = -st.Damage
				}
			}
			if si == 0 || bestLegit < searchedLegit {
				searchedLegit = bestLegit
				searchedSpec = attack.FormatSpec(strat, best.Params(dims))
			}
		}

		res.AddRow(
			string(kind),
			strategicLineup[handWorst],
			fmt.Sprintf("%.0f", handRates[handWorst]/1000),
			searchedSpec,
			fmt.Sprintf("%.0f", searchedLegit/1000),
			fmt.Sprintf("%.0f", (handRates[handWorst]-searchedLegit)/1000),
			fmt.Sprintf("%v", searchedLegit >= floor),
		)
	}
	res.Note("searched: simulated annealing, budget %d per (system, strategy) cell over %v; deterministic in the scale's seed", worstcaseBudget, worstcaseSearchLineup)
	res.Note("paper shape: NetFence holds the floor even at the searched optimum; the searched attack beats every hand-written strategy against TVA+ (colluder-granted capabilities reward raw rate)")
	return res
}

// worstcaseSeed derives an independent optimizer seed per (system ×
// strategy) cell from the scale's seed.
func worstcaseSeed(seed uint64, kind SystemKind, strat string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s", kind, strat)
	return seed ^ h.Sum64()
}
