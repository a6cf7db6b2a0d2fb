package exp

import (
	"fmt"

	"netfence"
	"netfence/internal/attack"
	"netfence/internal/core"
)

// Fig8 regenerates Figure 8: the average transfer time of a 20 KB file
// when the targeted victim can identify and wishes to remove the attack
// traffic. One legitimate user per source AS repeatedly sends the file
// over fresh TCP connections; every other sender attacks with the most
// effective flood against the deployed system (§6.3.1): request floods at
// the strategic priority level against NetFence, request floods against
// TVA+, and direct UDP floods against StopIt (which filters them) and FQ
// (which cannot).
func Fig8(sc Scale) Result {
	res := Result{
		Name:    "Figure 8",
		Title:   "mean 20 KB file transfer time under unwanted-traffic flooding",
		Columns: []string{"senders", "system", "mean FCT (s)", "p95 (s)", "completion", "transfers"},
	}
	for _, label := range sc.Labels {
		for _, kind := range sc.Compared() {
			fct := fig8Cell(sc, label, kind)
			res.AddRow(
				fmt.Sprintf("%dK", label/1000),
				string(kind),
				fmt.Sprintf("%.2f", fct.MeanSec),
				fmt.Sprintf("%.2f", fct.P95Sec),
				fmt.Sprintf("%.0f%%", 100*fct.Completion),
				fmt.Sprintf("%d", fct.Count+fct.Failed),
			)
		}
	}
	res.Note("paper shape: StopIt < TVA+ < NetFence (+~1 s request backoff), FQ grows linearly with senders; 100%% completion everywhere")
	return res
}

// StrategicRequestLevel computes the attack strategy of §6.3.1; it lives
// in the attack subsystem (the adversary's decision, a pure function of
// the public NetFence parameters) and is re-exported here for the
// experiment harness.
func StrategicRequestLevel(attackers int, bottleneckBps int64, cfg core.Config) uint8 {
	return attack.StrategicRequestLevel(attackers, bottleneckBps, cfg)
}

// fig8Cell runs one (label, system) cell: the first host of each source
// AS is the legitimate user (the paper's one-user-per-AS stress setup),
// and the victim denies every other sender.
func fig8Cell(sc Scale, label int, kind SystemKind) netfence.FCTSummary {
	users, attackers := splitSenders(sc.Senders, func(int) int { return 1 })
	var flood netfence.Workload
	switch kind {
	case SysNetFence:
		flood = netfence.RequestFlood{Senders: attackers, Strategic: true}
	case SysTVA:
		// TVA+'s request channel has no priority levels; flood flat.
		flood = netfence.RequestFlood{Senders: attackers}
	default:
		flood = netfence.UDPFlood{Senders: attackers}
	}
	return sc.run(netfence.Scenario{
		Topology:      netfence.DumbbellSpec{Senders: sc.Senders, BottleneckBps: sc.BottleneckBps(label)},
		Defense:       netfence.Defense(string(kind)),
		DenyAttackers: true,
		Workloads:     []netfence.Workload{netfence.FileTransfers{Senders: users}, flood},
	}).FCT
}
