package netfence_test

import (
	"testing"

	"netfence"
)

// TestFacadeEndToEnd drives the public API exactly as the quickstart
// example does: build a dumbbell, deploy NetFence, run a colluding pair
// against a TCP user, and verify the fair-share outcome.
func TestFacadeEndToEnd(t *testing.T) {
	eng := netfence.NewEngine(42)
	cfg := netfence.DefaultDumbbell(2, 400_000)
	cfg.ColluderASes = 1
	d := netfence.NewDumbbell(eng, cfg)
	sys := netfence.NewSystem(d.Net, netfence.DefaultConfig())
	netfence.DeployDumbbell(d, sys, netfence.Policy{})

	rcv := netfence.NewTCPReceiver(d.Victim.Host, 1)
	netfence.NewTCPSender(d.Senders[0].Host, d.Victim.ID, 1, -1, netfence.DefaultTCP()).Start()
	sink := netfence.NewUDPSink(d.Colluders[0].Host, 2)
	netfence.NewUDPSource(d.Senders[1].Host, d.Colluders[0].ID, 2, 1_000_000, 1500).Start()

	eng.RunUntil(60 * netfence.Second)
	if !sys.Bottleneck(d.Bottleneck).Monitoring() {
		t.Fatal("monitoring cycle not started")
	}
	start, atkStart := rcv.DeliveredBytes(), sink.Bytes
	eng.RunUntil(180 * netfence.Second)
	legit := float64(rcv.DeliveredBytes()-start) * 8 / 120
	atk := float64(sink.Bytes-atkStart) * 8 / 120
	if legit < 80_000 {
		t.Fatalf("legit throughput %.0f bps", legit)
	}
	if atk > 300_000 {
		t.Fatalf("attacker throughput %.0f bps above fair share band", atk)
	}
}

func TestFacadeJain(t *testing.T) {
	if got := netfence.Jain([]float64{1, 1, 1}); got != 1 {
		t.Fatalf("Jain = %v", got)
	}
}
