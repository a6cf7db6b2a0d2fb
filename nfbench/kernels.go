package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"netfence"
	"netfence/internal/aqm"
	"netfence/internal/cmac"
	"netfence/internal/feedback"
	"netfence/internal/netsim"
	"netfence/internal/packet"
	"netfence/internal/passport"
	"netfence/internal/ratelimit"
	"netfence/internal/sim"
	"netfence/internal/topo"
	"netfence/internal/transport"
)

// sink keeps kernel results alive so the compiler cannot elide the work.
var sink uint64

// batchTarget is the wall time one timed batch of a kernel aims for.
const batchTarget = 10 * time.Millisecond

// bench runs op(n) in batches of about batchTarget and returns the median
// ns per op over the batches, and heap allocations per op.
func bench(op func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		t0 := time.Now()
		op(n)
		if time.Since(t0) >= batchTarget/2 || n >= 1<<28 {
			break
		}
		n *= 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var per []float64
	for b := 0; b < 7; b++ {
		t0 := time.Now()
		op(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	return median(per), float64(ms1.Mallocs-ms0.Mallocs) / float64(7*n)
}

type nopHandler struct{}

func (nopHandler) OnEvent(sim.Time, any) {}

// kSimScheduleRun schedules one event and executes one on an engine
// holding pending events, so the wheel works at the workload's depth.
func kSimScheduleRun(pending int) (ns, allocs float64) {
	e := sim.New(1)
	rng := rand.New(rand.NewPCG(1, 2))
	const horizon = int64(50 * sim.Millisecond)
	var h nopHandler
	for i := 0; i < max(pending, 1); i++ {
		e.Schedule(e.Now()+1+sim.Time(rng.Int64N(horizon)), h, nil)
	}
	return bench(func(n int) {
		for i := 0; i < n; i++ {
			e.Schedule(e.Now()+1+sim.Time(rng.Int64N(horizon)), h, nil)
			e.Step()
		}
	})
}

// kCoordEmptyWindow is one synchronization window (drain and execute
// rounds) over empty engines: the coordinator's barrier floor.
func kCoordEmptyWindow(shards int, lookahead sim.Time) float64 {
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.New(1)
		engines[i].SetShardTag(i)
	}
	c := sim.NewCoordinator(engines, lookahead, nil)
	defer c.Stop()
	ns, _ := bench(func(n int) { c.RunBefore(c.Now() + sim.Time(n)*lookahead) })
	return ns
}

type agentFunc func(*packet.Packet)

func (f agentFunc) Receive(p *packet.Packet) { f(p) }

// kNetsimForward sends one pooled packet through a host uplink and a
// two-router path (three link transmissions) to a sink.
func kNetsimForward() (ns, allocs float64) {
	eng := sim.New(1)
	n := netsim.New(eng)
	h1 := n.NewHost("h1", 1)
	r1 := n.NewNode("r1", 1)
	r2 := n.NewNode("r2", 2)
	h2 := n.NewHost("h2", 2)
	n.Connect(h1, r1, 1_000_000_000, sim.Millisecond)
	n.Connect(r1, r2, 1_000_000_000, sim.Millisecond)
	n.Connect(r2, h2, 1_000_000_000, sim.Millisecond)
	n.ComputeRoutes()
	h2.Host.OnUnknownFlow = func(*packet.Packet) netsim.Agent { return agentFunc(func(*packet.Packet) { sink++ }) }
	send := func() {
		p := h1.Host.NewPacket()
		p.Dst = h2.ID
		p.Flow = 1
		p.Kind = packet.KindRegular
		p.Proto = packet.ProtoUDP
		p.Size = packet.SizeData
		h1.Host.Send(p)
		eng.Run()
	}
	for i := 0; i < 100; i++ {
		send()
	}
	return bench(func(n int) {
		for i := 0; i < n; i++ {
			send()
		}
	})
}

// forwardLinks is how many link transmissions one kNetsimForward op makes.
const forwardLinks = 3

// kMailboxDrain hands batches of batch packets across a cut link between
// two shard-tagged engines and times Mailbox.Drain per packet.
func kMailboxDrain(batch int) float64 {
	mk := func(tag int) (*sim.Engine, *netsim.Network, *netsim.Node, *netsim.Node) {
		e := sim.New(1)
		e.SetShardTag(tag)
		n := netsim.New(e)
		a := n.NewHost("a", 1)
		b := n.NewHost("b", 2)
		n.Connect(a, b, 10_000_000_000, sim.Millisecond)
		n.ComputeRoutes()
		return e, n, a, b
	}
	e1, _, a1, b1 := mk(0)
	e2, _, a2, b2 := mk(1)
	mb := netsim.NewMailbox(a2.LinkTo(b2))
	a1.LinkTo(b1).SetMailbox(mb)
	b2.Host.OnUnknownFlow = func(*packet.Packet) netsim.Agent { return agentFunc(func(*packet.Packet) { sink++ }) }
	var drain time.Duration
	var packets int
	round := func() {
		for i := 0; i < batch; i++ {
			p := a1.Host.NewPacket()
			p.Dst = b1.ID
			p.Flow = 1
			p.Kind = packet.KindRegular
			p.Proto = packet.ProtoUDP
			p.Size = packet.SizeData
			a1.Host.Send(p)
		}
		e1.Run()
		t0 := time.Now()
		mb.Drain(e1.Now() + sim.Millisecond)
		drain += time.Since(t0)
		packets += batch
		e2.Run()
	}
	for i := 0; i < 50; i++ {
		round()
	}
	var per []float64
	for g := 0; g < 7; g++ {
		drain, packets = 0, 0
		for t0 := time.Now(); time.Since(t0) < batchTarget; {
			round()
		}
		per = append(per, float64(drain.Nanoseconds())/float64(packets))
	}
	return median(per)
}

func kCMAC(size int) float64 {
	var key cmac.Key
	key[0] = 1
	c := cmac.New(key)
	msg := make([]byte, size)
	ns, _ := bench(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(c.Sum(msg)[0])
		}
	})
	return ns
}

// feedbackKernels times the access-router stamps, the bottleneck L-down
// stamp and access-router validation of presented L-up feedback.
func feedbackKernels() (nop, incr, decr, validate float64, err error) {
	var ka, kai cmac.Key
	ka[0], kai[0] = 1, 2
	ring := feedback.NewKeyRingFromKey(ka)
	kaiMAC := cmac.New(kai)
	lookup := func(packet.LinkID) *cmac.CMAC { return kaiMAC }
	p := &packet.Packet{Src: 10, Dst: 20, Kind: packet.KindRegular, Size: packet.SizeData}
	nop, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			feedback.StampNop(ring.Current(), p, 100)
		}
	})
	incr, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			feedback.StampIncr(ring.Current(), p, 100, 7)
		}
	})
	decr, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			feedback.StampDecr(kaiMAC, p, 7)
		}
	})
	feedback.StampIncr(ring.Current(), p, 100, 7)
	if v := feedback.Validate(ring, lookup, p, 101, 4); v != feedback.ValidMon {
		return 0, 0, 0, 0, fmt.Errorf("feedback kernel: L-up feedback validated as %d", v)
	}
	validate, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(feedback.Validate(ring, lookup, p, 101, 4))
		}
	})
	return nop, incr, decr, validate, nil
}

// passportKernels times stamping a trailer for an AS path of pathLen
// entries, and one transit-AS verification (averaged over verifying every
// entry of such a trailer in path order).
func passportKernels(pathLen float64) (stamp, verify float64, err error) {
	l := max(int(math.Round(pathLen)), 1)
	ases := make([]packet.ASID, l+1)
	for i := range ases {
		ases[i] = packet.ASID(i + 1)
	}
	reg := passport.NewRegistry(rand.New(rand.NewPCG(1, 2)), ases)
	path := ases[1:]
	p := &packet.Packet{Src: 10, Dst: 20, SrcAS: ases[0], Size: packet.SizeData}
	stamp, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			reg.Stamp(p, path)
		}
	})
	reg.Stamp(p, path)
	for _, as := range path {
		if !reg.Verify(p, as) {
			return 0, 0, fmt.Errorf("passport kernel: verify failed at AS %d", as)
		}
	}
	p.Passport.Next = 0
	verify, _ = bench(func(n int) {
		for i := 0; i < n; i++ {
			if reg.Verify(p, path[i%l]) {
				sink++
			}
			if i%l == l-1 {
				p.Passport.Next = 0
			}
		}
	})
	return stamp, verify, nil
}

// ratelimitKernels time the access-side limiters round-robin over the
// workload's access limiter count: a leaky-bucket submit on the pass
// path, one AIMD adjustment and one request-channel admission.
func ratelimitKernels(limiters int) (submit, adjust, admit float64) {
	n := max(limiters, 1)
	e := sim.New(1)
	leaky := make([]*ratelimit.LeakyLimiter, n)
	for i := range leaky {
		leaky[i] = ratelimit.NewLeakyLimiter(e, 100_000_000, 2*sim.Second, func(*packet.Packet) { sink++ })
	}
	p := &packet.Packet{Size: packet.SizeData}
	next := 0
	submit, _ = bench(func(k int) {
		for i := 0; i < k; i++ {
			sink += uint64(leaky[next].Submit(p))
			if next++; next == n {
				next = 0
				e.RunUntil(e.Now() + sim.Millisecond)
			}
		}
	})

	aimd := ratelimit.DefaultAIMD()
	rates := make([]int64, n)
	for i := range rates {
		rates[i] = 100_000
	}
	adjust, _ = bench(func(k int) {
		for i := 0; i < k; i++ {
			j := i % n
			rates[j] = aimd.Adjust(rates[j], i&1 == 0, rates[j]/2+1)
		}
	})

	reqs := make([]*ratelimit.RequestLimiter, n)
	for i := range reqs {
		reqs[i] = ratelimit.NewRequestLimiter(0)
	}
	now := sim.Time(0)
	admit, _ = bench(func(k int) {
		for i := 0; i < k; i++ {
			now += sim.Microsecond
			if reqs[i%n].Admit(uint8(1+i%10), now) {
				sink++
			}
		}
	})
	return submit, adjust, admit
}

// kREDEnqDeq is one RED enqueue and dequeue at a steady backlog below the
// minimum threshold, on a queue sized for the workload's bottleneck.
func kREDEnqDeq(bottleneckBps int64) float64 {
	cfg := aqm.DefaultRED(bottleneckBps)
	q := aqm.NewRED(cfg, rand.New(rand.NewPCG(1, 2)))
	backlog := max(cfg.MinThresh/2/packet.SizeData, 1)
	now := sim.Time(0)
	for i := 0; i < backlog; i++ {
		q.Enqueue(&packet.Packet{Size: packet.SizeData}, now)
	}
	free := &packet.Packet{Size: packet.SizeData}
	ns, _ := bench(func(n int) {
		for i := 0; i < n; i++ {
			now += cfg.MeanPktTime
			q.Enqueue(free, now)
			free, _ = q.Dequeue(now)
		}
	})
	return ns
}

// kTCPSegment is the wall time per delivered segment of one bulk TCP
// flow over a two-hop path (host, router, host), past slow start.
func kTCPSegment() float64 {
	e := sim.New(1)
	n := netsim.New(e)
	h1 := n.NewHost("h1", 1)
	r := n.NewNode("r", 1)
	h2 := n.NewHost("h2", 2)
	n.Connect(h1, r, 100_000_000, sim.Millisecond)
	n.Connect(r, h2, 100_000_000, sim.Millisecond)
	n.ComputeRoutes()
	flow := n.NextFlow()
	transport.NewTCPReceiver(h2.Host, flow)
	cfg := transport.DefaultTCP()
	s := transport.NewTCPSender(h1.Host, h2.ID, flow, -1, cfg)
	s.Start()
	e.RunUntil(e.Now() + sim.Second)
	var per []float64
	for g := 0; g < 7; g++ {
		acked := s.AckedBytes()
		t0 := time.Now()
		e.RunUntil(e.Now() + 200*sim.Millisecond)
		segs := float64(s.AckedBytes()-acked) / float64(cfg.MSS)
		per = append(per, float64(time.Since(t0).Nanoseconds())/segs)
	}
	return median(per)
}

// buildGraph mirrors the root package's topology specs: it builds the
// workload's graph, ComputeRoutes included.
func buildGraph(spec netfence.TopologySpec) (*topo.Graph, error) {
	switch s := spec.(type) {
	case netfence.DumbbellSpec:
		cfg := topo.DefaultDumbbell(s.Senders, s.BottleneckBps)
		cfg.ColluderASes = s.ColluderASes
		if cfg.SrcASes*cfg.HostsPerAS != s.Senders {
			cfg.SrcASes, cfg.HostsPerAS = topo.SplitEvenly(s.Senders, cfg.SrcASes)
		}
		return topo.NewDumbbell(sim.New(1), cfg).G, nil
	case netfence.RandomASSpec:
		cfg := topo.DefaultRandomAS(s.Senders, s.BottleneckBps)
		cfg.SrcASes, cfg.TransitASes = s.SrcASes, s.TransitASes
		cfg.ExtraLinks, cfg.ColluderASes = s.ExtraLinks, s.ColluderASes
		r, err := topo.NewRandomAS(sim.New(1), cfg)
		if err != nil {
			return nil, err
		}
		return r.G, nil
	}
	return nil, fmt.Errorf("topology kernel: unsupported spec %T", spec)
}

// topoKernels times building the workload's graph with its routes, and
// partitioning it, each as the median of five runs in seconds.
func topoKernels(spec netfence.TopologySpec, shards int) (build, partition float64, err error) {
	var builds, parts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		g, err := buildGraph(spec)
		if err != nil {
			return 0, 0, err
		}
		builds = append(builds, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := g.Partition(shards); err != nil {
			return 0, 0, fmt.Errorf("partition kernel: %w", err)
		}
		parts = append(parts, time.Since(t0).Seconds())
	}
	return median(builds), median(parts), nil
}
