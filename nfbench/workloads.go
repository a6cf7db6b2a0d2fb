package main

import (
	"fmt"

	"netfence"
)

// workload is one benchmark input: a scenario shape whose traffic the
// seed varies (BENCHMARK.json records why each was chosen). Every run of
// a workload goes through the root netfence API only — Scenario.Build,
// then Instance.Run (or Advance/Finish when traced).
type workload struct {
	name string
	// scenario builds the workload's scenario for a seed. singleEngine
	// forces Shards=1: the byte-identity reference of a sharded workload.
	scenario func(seed uint64, singleEngine bool) netfence.Scenario
	// sharded marks the workload that runs on the shard coordinator; the
	// other workloads must bypass coordinator, pipeline and mailboxes.
	sharded bool
}

// simDuration is the simulated length of every workload. It crosses the
// first access-router key rotation (Config.KeyRotate, 32 s), so prev-key
// validation and the pipeline's rotation fallback both run.
const simDuration = 34 * netfence.Second

var workloads = []workload{
	{
		name: "collusion-dumbbell",
		scenario: func(seed uint64, _ bool) netfence.Scenario {
			const senders = 1024
			users := senders / 4
			return netfence.Scenario{
				Name: "collusion-dumbbell",
				Seed: seed,
				Topology: netfence.DumbbellSpec{
					Senders: senders, BottleneckBps: senders * 100_000, ColluderASes: 9,
				},
				Workloads: []netfence.Workload{
					netfence.LongTCP{Senders: netfence.Range(0, users)},
					netfence.ColluderPairs{Senders: netfence.Range(users, senders), RateBps: 1_000_000},
				},
				Duration: simDuration,
			}
		},
	},
	{
		name: "passport-random-as-sharded",
		// The attack side is a weight-1 FleetSpec: one real 200 kbps
		// flood per attacker, each paced with jitter from a stream keyed
		// by (seed, host). Constant-rate floods (AttackSpec, UDPFlood)
		// at this size run phase-locked transmission chains whose
		// same-instant ties outlast sim.PedigreeDepth, and the sharded
		// engine then breaks them in shard order — outside its
		// byte-identity contract (README, "Determinism contract") — so
		// their sharded Result differs from the single engine's.
		scenario: func(seed uint64, singleEngine bool) netfence.Scenario {
			const senders = 2048
			users := senders / 4
			cfg := netfence.DefaultConfig()
			cfg.Passport = true
			shards := 2
			if singleEngine {
				shards = 1
			}
			return netfence.Scenario{
				Name: "passport-random-as-sharded",
				Seed: seed,
				Topology: netfence.RandomASSpec{
					Senders: senders, BottleneckBps: senders * 100_000,
					SrcASes: 32, ColluderASes: 9,
				},
				Defense: netfence.DefenseSpec{Name: "netfence", Config: cfg},
				Workloads: []netfence.Workload{
					netfence.LongTCP{Senders: netfence.Range(0, users)},
					netfence.FleetSpec{
						Count: senders - users, Senders: netfence.Range(users, senders),
						RateBps: 200_000, Attacker: true, ToColluders: true,
					},
				},
				Duration: simDuration,
				Shards:   shards,
				Pipeline: netfence.PipelineAuto,
			}
		},
		sharded: true,
	},
	{
		name: "fleet-million",
		scenario: func(seed uint64, _ bool) netfence.Scenario {
			const (
				users  = 256
				hosts  = 1024
				weight = 1024
				// rateBps is each modeled sender's offered load; the
				// bottleneck carries half of the fleet's aggregate.
				rateBps = 400
			)
			return netfence.Scenario{
				Name: "fleet-million",
				Seed: seed,
				Topology: netfence.RandomASSpec{
					Senders:       users + hosts,
					BottleneckBps: hosts * weight * rateBps / 2,
					SrcASes:       64,
					TransitASes:   8,
					ExtraLinks:    4,
					ColluderASes:  9,
				},
				Workloads: []netfence.Workload{
					netfence.LongTCP{Senders: netfence.Range(0, users)},
					netfence.FleetSpec{
						Count:    hosts * weight,
						Senders:  netfence.Range(users, users+hosts),
						RateBps:  rateBps,
						Attacker: true,
					},
				},
				Duration: simDuration,
			}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
