// Package netfence is a from-scratch reproduction of "NetFence:
// Preventing Internet Denial of Service from Inside Out" (Liu, Yang, Xia
// — SIGCOMM 2010): the secure congestion policing feedback primitive, the
// closed-loop access/bottleneck router architecture built on it, the
// paper's comparison baselines (TVA+, StopIt, per-sender fair queuing),
// and a packet-level discrete-event simulator to run them on.
//
// This root package is the public facade. The primary API is the
// declarative Scenario: name a topology, a defense from the pluggable
// registry, workloads and probes, and Run it — or fan a whole
// defenses × populations × seeds matrix across cores with Sweep:
//
//	res, err := netfence.Scenario{
//		Seed:     42,
//		Topology: netfence.DumbbellSpec{Senders: 2, BottleneckBps: 400_000, ColluderASes: 1},
//		Defense:  netfence.Defense("netfence"),
//		Workloads: []netfence.Workload{
//			netfence.LongTCP{Senders: []int{0}},
//			netfence.ColluderPairs{Senders: []int{1}},
//		},
//		Duration: 180 * netfence.Second,
//	}.Run()
//
// The low-level pieces (engine, topologies, defense constructors,
// transports) remain exported for programs that need manual wiring; the
// examples/ directory shows both styles, and cmd/netfence-sim
// regenerates every table and figure of the paper.
package netfence

import (
	"netfence/internal/attack"
	"netfence/internal/core"
	"netfence/internal/defense"
	"netfence/internal/metrics"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/sim"
	"netfence/internal/topo"
	"netfence/internal/transport"
)

// Simulation engine and time.
type (
	// Engine is the deterministic discrete-event scheduler.
	Engine = sim.Engine
	// Time is simulated time in nanoseconds.
	Time = sim.Time
)

// Time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// NewEngine returns a seeded simulation engine.
func NewEngine(seed uint64) *Engine { return sim.New(seed) }

// Network substrate.
type (
	// Network is a simulated internetwork.
	Network = netsim.Network
	// Node is a router or host.
	Node = netsim.Node
	// Host is the end-system stack on a host node.
	Host = netsim.Host
	// Agent is a transport endpoint attached to a host.
	Agent = netsim.Agent
	// Link is a unidirectional link.
	Link = netsim.Link
	// Packet is the simulated packet.
	Packet = packet.Packet
	// PacketKind classifies a packet into one of NetFence's three
	// channels (legacy, request, regular).
	PacketKind = packet.Kind
	// Feedback is one congestion policing feedback element — what
	// attack strategies observe and may craft.
	Feedback = packet.Feedback
	// NodeID addresses a node.
	NodeID = packet.NodeID
	// ASID identifies an autonomous system.
	ASID = packet.ASID
	// FlowID identifies a transport connection.
	FlowID = packet.FlowID
)

// NewNetwork returns an empty network driven by eng.
func NewNetwork(eng *Engine) *Network { return netsim.New(eng) }

// Packet channels, for strategies crafting their own headers.
const (
	KindLegacy  = packet.KindLegacy
	KindRequest = packet.KindRequest
	KindRegular = packet.KindRegular
)

// NetFence proper.
type (
	// Config holds every NetFence parameter (Figure 3 defaults).
	Config = core.Config
	// System is a NetFence deployment.
	System = core.System
	// Policy is a host's receiver-side classification of unwanted
	// traffic.
	Policy = defense.Policy
	// DefenseSystem is the interface NetFence and all baselines satisfy.
	DefenseSystem = defense.System
)

// DefaultConfig returns the paper's Figure 3 parameters.
func DefaultConfig() Config { return core.DefaultConfig() }

// Attack strategies. The adaptive-adversary subsystem (internal/attack)
// mirrors the defense and topology registries: strategies resolve by
// name in AttackSpec workloads and the Sweep.Attacks axis, and third
// parties register their own through RegisterAttack.
type (
	// AttackStrategy decides, per control tick, how each attack sender
	// transmits; see the interface's hooks for feedback observation and
	// packet crafting.
	AttackStrategy = attack.Strategy
	// AttackBuilder constructs a strategy from build options.
	AttackBuilder = attack.Builder
	// AttackBuildOptions carries rate, packet size, environment and
	// strategy-specific options to a builder.
	AttackBuildOptions = attack.BuildOptions
	// AttackEnv is the scenario view adaptive strategies key off.
	AttackEnv = attack.Env
	// AttackDecision is a strategy's per-tick transmission plan.
	AttackDecision = attack.Decision
	// AttackSender is one controller-driven attack sender.
	AttackSender = attack.Sender
	// AttackController drives one attack workload's senders — the
	// escape hatch for manual wiring outside the Scenario API.
	AttackController = attack.Controller
	// OnOffOptions configures the "onoff-sync" strategy.
	OnOffOptions = attack.OnOffOptions
	// AttackParamSpec declares one tunable strategy parameter — the
	// dimension surface the adversarial search optimizes over.
	AttackParamSpec = attack.ParamSpec
)

// RegisterAttack makes a third-party attack strategy resolvable by name
// in scenarios and sweeps. In-tree strategies ("flood", "onoff-sync",
// "request-prio", "replay", "legacy-flood") are pre-registered. The
// optional params declare the strategy's tunable surface (validated on
// build, searched by SearchSpec).
func RegisterAttack(name string, b AttackBuilder, params ...AttackParamSpec) {
	attack.Register(name, b, params...)
}

// Attacks returns the sorted names of every registered attack strategy.
func Attacks() []string { return attack.Names() }

// AttackParams returns a strategy's declared tunable parameters in
// declaration order.
func AttackParams(name string) ([]AttackParamSpec, error) { return attack.Params(name) }

// ParseAttackSpec parses an attack option string — "name" or
// "name:key=val,key=val" — into the canonical strategy name and its
// validated parameter overrides.
func ParseAttackSpec(s string) (name string, params map[string]float64, err error) {
	return attack.ParseSpec(s)
}

// FormatAttackSpec renders a (strategy, params) pair canonically; it
// round-trips with ParseAttackSpec.
func FormatAttackSpec(name string, params map[string]float64) string {
	return attack.FormatSpec(name, params)
}

// NewAttackStrategy resolves a registered strategy by name and
// constructs it with the given options.
func NewAttackStrategy(name string, opts AttackBuildOptions) (AttackStrategy, error) {
	return attack.Build(name, opts)
}

// NewAttackController creates a controller driving one strategy
// instance over manually added senders.
func NewAttackController(s AttackStrategy, env *AttackEnv) *AttackController {
	return attack.NewController(s, env)
}

// StrategicRequestLevel computes the §6.3.1 request-channel attack
// level: the highest priority whose aggregate admitted attack traffic
// still saturates the request channel.
func StrategicRequestLevel(attackers int, bottleneckBps int64, cfg Config) uint8 {
	return attack.StrategicRequestLevel(attackers, bottleneckBps, cfg)
}

// TheoremBound returns the Theorem-1 (§3.4, Appendix A) lower bound
// ρ·C/(G+B) on a sufficient-demand sender's rate limit — the fair-share
// floor no attack strategy can push a legitimate sender below.
func TheoremBound(cfg Config, bottleneckBps int64, senders int) float64 {
	return attack.TheoremBound(cfg, bottleneckBps, senders)
}

// NewSystem creates a NetFence deployment over net.
func NewSystem(net *Network, cfg Config) *System { return core.NewSystem(net, cfg) }

// Topologies. The role-tagged Graph underneath them (and the topology
// registry resolving them by name) is exported in topology.go.
type (
	// Dumbbell is the §6.3.1 evaluation topology.
	Dumbbell = topo.Dumbbell
	// DumbbellConfig parameterizes it.
	DumbbellConfig = topo.DumbbellConfig
	// ParkingLot is the multi-bottleneck topology.
	ParkingLot = topo.ParkingLot
	// ParkingLotConfig parameterizes it.
	ParkingLotConfig = topo.ParkingLotConfig
	// Star is the single-AS hotspot topology.
	Star = topo.Star
	// StarConfig parameterizes it.
	StarConfig = topo.StarConfig
	// RandomAS is the seeded random AS-level topology.
	RandomAS = topo.RandomAS
	// RandomASConfig parameterizes it.
	RandomASConfig = topo.RandomASConfig
	// DeployPlan selects the ASes participating in a deployment (the
	// compiled form of a scenario's Deployment).
	DeployPlan = topo.Plan
)

// DefaultDumbbell mirrors the paper's dumbbell at a given population and
// bottleneck capacity.
func DefaultDumbbell(senders int, bottleneckBps int64) DumbbellConfig {
	return topo.DefaultDumbbell(senders, bottleneckBps)
}

// NewDumbbell builds the topology.
func NewDumbbell(eng *Engine, cfg DumbbellConfig) *Dumbbell { return topo.NewDumbbell(eng, cfg) }

// DefaultParkingLot mirrors the paper's parking lot.
func DefaultParkingLot(sendersPerGroup int, l1, l2 int64) ParkingLotConfig {
	return topo.DefaultParkingLot(sendersPerGroup, l1, l2)
}

// NewParkingLot builds the topology.
func NewParkingLot(eng *Engine, cfg ParkingLotConfig) *ParkingLot {
	return topo.NewParkingLot(eng, cfg)
}

// NewStar builds the single-AS hotspot topology.
func NewStar(eng *Engine, cfg StarConfig) *Star { return topo.NewStar(eng, cfg) }

// DefaultStar mirrors the dumbbell's parameters at a given population.
func DefaultStar(senders int, bottleneckBps int64) StarConfig {
	return topo.DefaultStar(senders, bottleneckBps)
}

// NewRandomAS builds a seeded random AS-level topology.
func NewRandomAS(eng *Engine, cfg RandomASConfig) (*RandomAS, error) {
	return topo.NewRandomAS(eng, cfg)
}

// DefaultRandomAS mirrors the dumbbell's parameters over a 4-router
// random core.
func DefaultRandomAS(senders int, bottleneckBps int64) RandomASConfig {
	return topo.DefaultRandomAS(senders, bottleneckBps)
}

// PlanFraction compiles a deployment fraction over source ASes into a
// DeployPlan — the helper behind DeployFraction for code deploying onto
// a Graph manually.
func PlanFraction(srcASes []ASID, f float64) DeployPlan {
	return topo.PlanFraction(srcASes, f)
}

// DeployDumbbell installs a defense system across a dumbbell: bottleneck
// protected, access routers policing, hosts shimmed; deny is the victim's
// receiver policy.
func DeployDumbbell(d *Dumbbell, s DefenseSystem, deny Policy) {
	d.Deploy(s, deny)
}

// DeployParkingLot installs a defense system across a parking lot,
// protecting both bottlenecks; deny is applied to every group's victim.
func DeployParkingLot(pl *ParkingLot, s DefenseSystem, deny Policy) {
	pl.Deploy(s, deny)
}

// DeployGraph installs a defense system across any role-tagged Graph
// under a partial-deployment plan (the zero Plan deploys everywhere).
func DeployGraph(g *Graph, s DefenseSystem, deny Policy, plan DeployPlan) {
	g.Deploy(s, deny, plan)
}

// Transports and workloads.
type (
	// TCPSender is a TCP Reno sender.
	TCPSender = transport.TCPSender
	// TCPReceiver is its passive peer.
	TCPReceiver = transport.TCPReceiver
	// TCPConfig tunes TCP.
	TCPConfig = transport.TCPConfig
	// WebConfig tunes the web-like source.
	WebConfig = transport.WebConfig
	// UDPSource is a constant-rate or on-off UDP source.
	UDPSource = transport.UDPSource
	// UDPSink counts delivered traffic.
	UDPSink = transport.UDPSink
	// FileClient repeats fixed-size transfers over fresh connections.
	FileClient = transport.FileClient
	// WebSource issues web-like transfers.
	WebSource = transport.WebSource
	// RequestFlooder is the request-channel attack source.
	RequestFlooder = transport.RequestFlooder
)

// DefaultTCP returns the evaluation TCP configuration.
func DefaultTCP() TCPConfig { return transport.DefaultTCP() }

// DefaultWeb returns the §6.3.2 web workload parameters.
func DefaultWeb() WebConfig { return transport.DefaultWeb() }

// NewTCPSender, NewTCPReceiver, NewUDPSource, NewUDPSink, NewFileClient,
// NewWebSource and NewRequestFlooder mirror the internal constructors.
var (
	NewTCPSender      = transport.NewTCPSender
	NewTCPReceiver    = transport.NewTCPReceiver
	NewUDPSource      = transport.NewUDPSource
	NewUDPSink        = transport.NewUDPSink
	NewFileClient     = transport.NewFileClient
	NewWebSource      = transport.NewWebSource
	NewRequestFlooder = transport.NewRequestFlooder
)

// Metrics.
type (
	// FCT records transfer completion times.
	FCT = metrics.FCT
)

// Jain computes Jain's fairness index.
func Jain(xs []float64) float64 { return metrics.Jain(xs) }
