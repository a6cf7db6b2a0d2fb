package exp

import (
	"fmt"

	"netfence"
	"netfence/internal/sim"
)

// Fig11 regenerates Figure 11: average user throughput under microscopic
// on-off attacks. Users run long TCP; attackers send synchronized 1 Mbps
// bursts with on-period Ton and off-period Toff. The emulated population
// is 100K senders (each fair share 100 kbps as if attackers were always
// on); the claim is that no burst shape depresses users below that.
func Fig11(sc Scale) Result {
	res := Result{
		Name:    "Figure 11",
		Title:   "avg user throughput (kbps) under synchronized on-off attacks, 100K senders",
		Columns: []string{"Toff (s)", "Ton=0.5s", "Ton=4s"},
	}
	toffs := []sim.Time{1500 * sim.Millisecond, 10 * sim.Second, 50 * sim.Second, 100 * sim.Second}
	if sc.Name == "tiny" {
		toffs = []sim.Time{1500 * sim.Millisecond, 50 * sim.Second}
	}
	for _, toff := range toffs {
		short := fig11Cell(sc, 500*sim.Millisecond, toff)
		long := fig11Cell(sc, 4*sim.Second, toff)
		res.AddRow(
			fmt.Sprintf("%.1f", toff.Seconds()),
			fmt.Sprintf("%.0f", short/1000),
			fmt.Sprintf("%.0f", long/1000),
		)
	}
	res.Note("paper shape: >=100 kbps everywhere (fair share with always-on attackers), climbing toward ~400 kbps as Toff grows")
	return res
}

func fig11Cell(sc Scale, ton, toff sim.Time) float64 {
	users, attackers := splitSenders(sc.Senders, quarterUsers)
	return sc.run(netfence.Scenario{
		Topology: sc.dumbbell(100_000), // 100 kbps fair share
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: users},
			// All sources share phase: synchronized bursts.
			netfence.OnOffFlood{Senders: attackers, RateBps: 1_000_000, On: ton, Off: toff, ToColluders: true},
		},
	}).UserBps
}
