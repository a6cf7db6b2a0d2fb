package exp

import (
	"fmt"

	"netfence"
)

// Fig9 regenerates Figure 9: the throughput ratio between legitimate
// users and attackers when compromised sender-receiver pairs collude to
// flood the network (or, equivalently, when victims fail to identify
// attack traffic). Each source AS is 25% legitimate users sending TCP to
// the victim and 75% attackers sending 1 Mbps UDP in regular packets to
// colluders spread over nine extra ASes. web selects the Figure 9(b)
// web-like workload instead of long-running TCP.
func Fig9(sc Scale, web bool) Result {
	variant, title := "a", "long-running TCP"
	if web {
		variant, title = "b", "web-like traffic"
	}
	res := Result{
		Name:    "Figure 9" + variant,
		Title:   "throughput ratio legit/attacker, colluding attacks, " + title,
		Columns: []string{"senders", "system", "ratio", "Jain legit", "legit kbps", "attacker kbps", "util"},
	}
	for _, label := range sc.Labels {
		for _, kind := range sc.Compared() {
			c := fig9Cell(sc, label, kind, web)
			res.AddRow(
				fmt.Sprintf("%dK", label/1000),
				string(kind),
				fmt.Sprintf("%.2f", c.ratio),
				fmt.Sprintf("%.2f", c.jain),
				fmt.Sprintf("%.0f", c.legitBps/1000),
				fmt.Sprintf("%.0f", c.atkBps/1000),
				fmt.Sprintf("%.0f%%", 100*c.util),
			)
		}
	}
	if web {
		res.Note("paper shape: NetFence ratio climbs ~0.3 to ~1 with senders (web demand cannot fill large fair shares); TVA+ lowest")
	} else {
		res.Note("paper shape: NetFence ~1; FQ/StopIt slightly below 1 (TCP-vs-DRR); TVA+ ~1/3 with 9 colluders; NetFence utilization >90%%")
	}
	return res
}

type fig9Out struct {
	ratio, jain      float64
	legitBps, atkBps float64
	util             float64
}

// fig9Of reads a collusion cell's row values from its result.
func fig9Of(res *netfence.Result) fig9Out {
	return fig9Out{
		ratio: res.Ratio, jain: res.Jain,
		legitBps: res.UserBps, atkBps: res.AttackerBps,
		util: res.Utilization,
	}
}

func fig9Cell(sc Scale, label int, kind SystemKind, web bool) fig9Out {
	return fig9CellDeploy(sc, label, kind, web, 1)
}

// fig9CellDeploy is fig9Cell at a partial deployment: only deployFrac of
// the source ASes run the defense; the rest pass traffic undefended.
// The incremental-deployment experiment sweeps this knob. Colluding
// receivers do not identify attack traffic, so nobody is denied.
func fig9CellDeploy(sc Scale, label int, kind SystemKind, web bool, deployFrac float64) fig9Out {
	users, attackers := splitSenders(sc.Senders, quarterUsers)
	var legit netfence.Workload = netfence.LongTCP{Senders: users}
	if web {
		legit = netfence.WebTraffic{Senders: users}
	}
	return fig9Of(sc.run(netfence.Scenario{
		Topology:   sc.dumbbell(label),
		Defense:    netfence.Defense(string(kind)),
		Deployment: netfence.DeployFraction(deployFrac),
		Workloads:  []netfence.Workload{legit, netfence.ColluderPairs{Senders: attackers, RateBps: 1_000_000}},
	}))
}
