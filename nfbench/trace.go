package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"text/tabwriter"
	"time"

	"netfence"
	"netfence/internal/sim"
)

// slices is how many fixed slices of simulated time the traced run is
// advanced in; 340 leaves 17 samples above the p95 slice time.
const slices = 340

// untracedReps is how many untraced fresh-process runs the traced report
// takes its trace_overhead base (and output checks) from.
const untracedReps = 2

// span is one timed interval of the traced run, recorded from the
// benchmark's own calls into the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory; they are written once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	d := time.Since(t.t0).Nanoseconds() - t.spans[i].Start
	t.spans[i].Dur = d
	return time.Duration(d)
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	i := t.begin(name, parent)
	fn()
	return t.end(i)
}

// write stores the spans as JSON under .bench_build/ and returns the path.
func (t *tracer) write(workload string, seed uint64) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// gcCPUSeconds reads the runtime's cumulative GC CPU estimate.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// meanPathLen is the mean AS-path length (source AS excluded, as in a
// Passport trailer) from each sender to the destination its workload
// sends to.
func meanPathLen(in *netfence.Instance) float64 {
	groups := in.Graph.Groups()
	if len(groups) == 0 {
		return 0
	}
	g := groups[0]
	var total, n int
	add := func(senders []int, toColluders bool) {
		for k, idx := range senders {
			dst := g.Victim
			if toColluders && len(g.Colluders) > 0 {
				dst = g.Colluders[k%len(g.Colluders)]
			}
			total += len(in.Net.PathASes(g.Senders[idx].ID, dst.ID))
			n++
		}
	}
	for _, wl := range in.Scenario.Workloads {
		switch s := wl.(type) {
		case netfence.LongTCP:
			add(s.Senders, false)
		case netfence.ColluderPairs:
			add(s.Senders, true)
		case netfence.AttackSpec:
			add(s.Senders, s.ToColluders)
		case netfence.FleetSpec:
			add(s.Senders, s.ToColluders)
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// traced makes the per-layer report: untraced runs for the overhead base,
// one traced run advanced in fixed slices, and the layer kernels fed with
// what the traced run measured.
func traced(ctx context.Context, w *workload, seed uint64) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	g := &gate{}
	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	record := func(what string, o *outcome, err error) {
		if err := g.observe(o, err); err != nil {
			fail("%s: %v", what, err)
		}
	}

	// The sharded workload's single-engine twin: its reference off the
	// default seed, and the access limiter count the sharded run cannot
	// reach.
	limiters := -1
	if w.sharded {
		r, err := spawnRep(ctx, w, seed, true)
		if err != nil {
			return rep, fmt.Errorf("single-engine twin: %w", err)
		}
		limiters = r.Limiters
		g.ref = twin(r.outcome)
	}
	if seed == defaultSeed {
		pin, err := pinned(w.name)
		if err != nil {
			return rep, err
		}
		if g.ref != nil && pin != nil {
			if err := check(pin, g.ref); err != nil {
				fail("single-engine twin against reference.json: %v", err)
			}
		}
		g.ref = pin
	}

	// Untraced base runs, fresh processes as in the end-to-end report.
	var runS []float64
	for i := 0; i < untracedReps; i++ {
		r, err := spawnRep(ctx, w, seed, false)
		record(fmt.Sprintf("untraced run %d", i+1), &r.outcome, err)
		if err == nil {
			runS = append(runS, r.RunS)
			if !w.sharded {
				limiters = r.Limiters
			}
		}
	}

	// The traced run, in this process.
	tr := &tracer{t0: time.Now()}
	root := tr.begin("traced-run", -1)
	heap0 := heapAlloc()
	sc := w.scenario(seed, false)
	var in *netfence.Instance
	var err error
	buildD := tr.timed("Build", root, func() { in, err = sc.Build() })
	if err != nil {
		return rep, fmt.Errorf("traced build: %w", err)
	}
	setupHeap := heapAlloc() - heap0

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	dur := in.Scenario.Duration
	sliceMs := make([]float64, 0, slices)
	pendingPeak := 0
	var advanceD time.Duration
	for i := 1; i <= slices; i++ {
		t := dur * sim.Time(i) / slices
		d := tr.timed("Advance", root, func() { in.Advance(t) })
		advanceD += d
		sliceMs = append(sliceMs, float64(d.Nanoseconds())/1e6)
		for _, e := range in.Engines {
			pendingPeak = max(pendingPeak, e.Pending())
		}
	}
	var res *netfence.Result
	finishD := tr.timed("Finish", root, func() { res = in.Finish() })
	runtime.ReadMemStats(&ms1)
	gcCPU := gcCPUSeconds() - gc0
	tracedRun := advanceD + finishD
	raw, err := json.Marshal(res)
	if err != nil {
		return rep, err
	}
	events := in.EventsExecuted()
	counters := in.Counters()
	record("traced run", &outcome{Digest: digest(raw), Events: events, Counters: counters}, nil)
	if limiters < 0 {
		limiters = accessLimiters(in)
	}
	heapEnd := heapAlloc() - heap0
	pathLen := meanPathLen(in)
	rtc := in.RuntimeCounters()
	sh := in.Sharding
	runtime.KeepAlive(in)

	base := median(runS)
	put("scenario.build_s", buildD.Seconds(), "s")
	put("scenario.finish_s", finishD.Seconds(), "s")
	put("scenario.slice_ms.p50", quantile(sliceMs, 0.5), "ms")
	put("scenario.slice_ms.p95", quantile(sliceMs, 0.95), "ms")
	put("scenario.slices", slices, "count")
	put("scenario.trace_overhead", ratio(tracedRun.Seconds(), base), "ratio")

	put("sim.events", float64(events), "count")
	put("sim.events_per_s", ratio(float64(events), tracedRun.Seconds()), "1/s")
	put("sim.ns_per_event", ratio(float64(tracedRun.Nanoseconds()), float64(events)), "ns")
	put("sim.pending_peak", float64(pendingPeak), "count")

	c := func(name string) float64 { return float64(counters[name]) }
	rc := func(name string) float64 { return float64(rtc[name]) }
	var windows, serMax, serMean float64
	if sh != nil {
		windows = float64(sh.Windows())
		ser := sh.SerializedNanos()
		for _, v := range ser {
			serMax = max(serMax, float64(v)/1e9)
			serMean += float64(v) / 1e9 / float64(len(ser))
		}
	}
	put("coord.windows", windows, "count")
	put("coord.events_per_window", ratio(float64(events), windows), "count")
	put("coord.serialized_s_max", serMax, "s")
	put("coord.serialized_imbalance", ratio(serMax, serMean), "ratio")
	offCritical := 0.0
	if sh != nil {
		offCritical = tracedRun.Seconds() - serMax
	}
	put("coord.off_critical_s", offCritical, "s")
	put("pipeline.packets", rc("pipeline_validation_packet_total"), "count")
	put("pipeline.hit_ratio", ratio(rc("pipeline_precompute_hit_total"), rc("pipeline_precompute_total")), "ratio")
	put("pipeline.rotation_fallbacks", rc("pipeline_rotation_fallback_total"), "count")

	handoffBatch := ratio(rc("netsim_handoff_packet_total"), rc("netsim_handoff_batch_total"))
	put("netsim.tx_packets", c("netsim_tx_packets_total"), "count")
	put("netsim.delivered", c("netsim_delivered_total"), "count")
	put("netsim.drops", c("netsim_drop_total"), "count")
	put("netsim.handoff_packets", rc("netsim_handoff_packet_total"), "count")
	put("netsim.handoff_batch_mean", handoffBatch, "count")
	put("netsim.mailbox_depth_hwm", rc("netsim_mailbox_depth_hwm"), "count")

	for _, k := range []struct{ metric, counter string }{
		{"core.stamp_nop", "core_stamp_nop_total"},
		{"core.stamp_incr", "core_stamp_incr_total"},
		{"core.stamp_decr", "core_stamp_decr_total"},
		{"core.mac_fail", "core_mac_verify_fail_total"},
		{"core.limiter_pass", "core_limiter_pass_total"},
		{"core.limiter_drop", "core_limiter_drop_total"},
		{"core.request_admitted", "core_request_admitted_total"},
		{"core.request_dropped", "core_request_dropped_total"},
		{"core.police_demoted", "core_police_demoted_total"},
		{"queue.drop_regular", "queue_drop_regular_total"},
		{"queue.drop_request", "queue_drop_request_total"},
	} {
		put(k.metric, c(k.counter), "count")
	}
	put("queue.hwm_bytes", c("queue_hwm_bytes"), "B")

	put("runtime.allocs_per_event", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(events)), "count")
	put("runtime.alloc_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc), "B")
	put("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	put("runtime.gc_cpu_s", gcCPU, "s")
	put("mem.setup_heap_bytes", float64(setupHeap), "B")
	put("mem.heap_bytes_per_sender", ratio(float64(heapEnd), float64(res.Senders)), "B")

	// Kernels, fed with the traced run's measured shape.
	shards, lookahead := 0, sim.Time(0)
	if sh != nil {
		shards, lookahead = sh.Shards, sh.Lookahead
	}
	partShards := max(shards, 2)
	put("passport.path_len_mean", pathLen, "count")
	put("ratelimit.access_limiters", float64(limiters), "count")
	kroot := tr.begin("kernels", root)
	kernel := func(name string, fn func()) { tr.timed(name, kroot, fn) }
	var k struct {
		schedNs, schedAllocs, windowNs, fwdNs, fwdAllocs, drainNs float64
		sum16, sum64, nop, incr, decr, validate, pStamp, pVerify  float64
		submit, adjust, admit, red, tcp, topoBuild, topoPart      float64
		kerr                                                      error
	}
	kernel("sim.schedule_run", func() { k.schedNs, k.schedAllocs = kSimScheduleRun(pendingPeak) })
	if shards > 0 {
		kernel("coord.empty_window", func() { k.windowNs = kCoordEmptyWindow(shards, lookahead) })
	}
	kernel("netsim.forward", func() { k.fwdNs, k.fwdAllocs = kNetsimForward() })
	if handoffBatch > 0 {
		kernel("netsim.mailbox_drain", func() { k.drainNs = kMailboxDrain(max(int(handoffBatch+0.5), 1)) })
	}
	kernel("cmac.sum16", func() { k.sum16 = kCMAC(16) })
	kernel("cmac.sum64", func() { k.sum64 = kCMAC(64) })
	kernel("feedback", func() { k.nop, k.incr, k.decr, k.validate, k.kerr = feedbackKernels() })
	if k.kerr != nil {
		return rep, k.kerr
	}
	kernel("passport", func() { k.pStamp, k.pVerify, k.kerr = passportKernels(pathLen) })
	if k.kerr != nil {
		return rep, k.kerr
	}
	kernel("ratelimit", func() { k.submit, k.adjust, k.admit = ratelimitKernels(limiters) })
	bottleneckBps := int64(0)
	if bn := in.Graph.Bottlenecks(); len(bn) > 0 {
		bottleneckBps = bn[0].Rate
	}
	kernel("aqm.red_enqdeq", func() { k.red = kREDEnqDeq(bottleneckBps) })
	kernel("transport.tcp_segment", func() { k.tcp = kTCPSegment() })
	kernel("topo", func() { k.topoBuild, k.topoPart, k.kerr = topoKernels(sc.Topology, partShards) })
	if k.kerr != nil {
		return rep, k.kerr
	}
	tr.end(kroot)
	tr.end(root)

	put("sim.k.schedule_run_ns", k.schedNs, "ns")
	put("sim.k.schedule_run_allocs", k.schedAllocs, "count")
	put("coord.k.empty_window_ns", k.windowNs, "ns")
	put("netsim.k.forward_ns", k.fwdNs, "ns")
	put("netsim.k.forward_allocs", k.fwdAllocs, "count")
	put("netsim.k.mailbox_drain_ns_per_packet", k.drainNs, "ns")
	put("cmac.k.sum16_ns", k.sum16, "ns")
	put("cmac.k.sum64_ns", k.sum64, "ns")
	put("feedback.k.stamp_nop_ns", k.nop, "ns")
	put("feedback.k.stamp_incr_ns", k.incr, "ns")
	put("feedback.k.stamp_decr_ns", k.decr, "ns")
	put("feedback.k.validate_ns", k.validate, "ns")
	put("passport.k.stamp_ns", k.pStamp, "ns")
	put("passport.k.verify_ns", k.pVerify, "ns")
	put("ratelimit.k.leaky_submit_ns", k.submit, "ns")
	put("ratelimit.k.aimd_adjust_ns", k.adjust, "ns")
	put("ratelimit.k.request_admit_ns", k.admit, "ns")
	put("aqm.k.red_enqdeq_ns", k.red, "ns")
	put("transport.k.tcp_segment_ns", k.tcp, "ns")
	put("topo.k.build_routes_s", k.topoBuild, "s")
	put("topo.k.partition_s", k.topoPart, "s")
	put("host.calib_ns", calibrate(), "ns")

	// Attribution: each layer's kernel cost times the workload's op count.
	passportOn := false
	if cfg, ok := sc.Defense.Config.(netfence.Config); ok {
		passportOn = cfg.Passport
	}
	stamps := c("core_stamp_nop_total") + c("core_stamp_incr_total")
	verifies := c("queue_backlog_bytes_count") + c("queue_drop_regular_total") + c("queue_drop_request_total")
	if !passportOn {
		stamps, verifies = 0, 0
	}
	policed := c("core_limiter_pass_total") + c("core_limiter_drop_total")
	adjustments := float64(limiters) * dur.Seconds() / netfence.DefaultConfig().Ilim.Seconds()
	rows := []attribRow{
		{"sim", "sim.events (exact) x schedule_run", []term{{k.schedNs, float64(events)}}},
		{"netsim", "netsim.tx_packets (exact) x forward/3 + netsim.handoff_packets (exact) x mailbox_drain",
			[]term{{k.fwdNs / forwardLinks, c("netsim_tx_packets_total")}, {k.drainNs, rc("netsim_handoff_packet_total")}}},
		{"feedback", "core.stamp_{nop,incr,decr} (exact) x stamp kernels + regular packets policed (proxy: limiter_pass+limiter_drop+police_demoted) x validate",
			[]term{{k.nop, c("core_stamp_nop_total")}, {k.incr, c("core_stamp_incr_total")}, {k.decr, c("core_stamp_decr_total")},
				{k.validate, policed + c("core_police_demoted_total")}}},
		{"passport", "stamps (proxy: stamp_nop+stamp_incr, one trailer per access-forwarded packet) x stamp + bottleneck verifies (proxy: backlog_count+queue drops) x verify; 0 with Passport off",
			[]term{{k.pStamp, stamps}, {k.pVerify, verifies}}},
		{"ratelimit", "limiter_pass+limiter_drop (exact) x leaky_submit + request_admitted+request_dropped (exact) x request_admit + AIMD adjusts (proxy: limiters x duration/Ilim) x aimd_adjust",
			[]term{{k.submit, policed}, {k.admit, c("core_request_admitted_total") + c("core_request_dropped_total")}, {k.adjust, adjustments}}},
		{"coord", "coord.windows (exact) x empty_window", []term{{k.windowNs, windows}}},
	}
	sum := printAttribution(w.name, base, rows)
	for _, r := range rows {
		put("attrib."+r.layer+"_s", r.seconds(), "s")
	}
	put("attrib.residual_s", base-sum, "s")

	// Bypass assertion: a single-engine workload never touches the
	// coordinator, the validation pipeline or cut-link mailboxes.
	if !w.sharded {
		for name, m := range rep.Metrics {
			if (strings.HasPrefix(name, "coord.") || strings.HasPrefix(name, "pipeline.") ||
				strings.HasPrefix(name, "netsim.handoff_") || name == "netsim.mailbox_depth_hwm") && m.Value != 0 {
				fail("bypass assertion: %s = %g on single-engine workload %s, want 0", name, m.Value, w.name)
			}
		}
	}

	path, err := tr.write(w.name, seed)
	if err != nil {
		return rep, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "nfbench:", p)
	}
	rep.Attempted, rep.Failed = g.attempted, g.failed
	rep.Correct = len(problems) == 0
	return rep, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// term is one kernel cost (ns per op) times an op count.
type term struct{ ns, ops float64 }

type attribRow struct {
	layer, source string
	terms         []term
}

func (r attribRow) seconds() float64 {
	s := 0.0
	for _, t := range r.terms {
		s += t.ns * t.ops / 1e9
	}
	return s
}

// printAttribution prints the attribution table and returns the sum of
// the layers' seconds.
func printAttribution(workload string, runS float64, rows []attribRow) float64 {
	fmt.Printf("attribution (%s, untraced run_s %.3fs):\n", workload, runS)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tseconds\tshare\top-count source x kernel")
	sum := 0.0
	for _, r := range rows {
		s := r.seconds()
		sum += s
		fmt.Fprintf(tw, "%s\t%.3f\t%.1f%%\t%s\n", r.layer, s, 100*ratio(s, runS), r.source)
	}
	fmt.Fprintf(tw, "residual\t%.3f\t%.1f%%\trun_s minus the layers above (negative when shards run layers in parallel)\n", runS-sum, 100*ratio(runS-sum, runS))
	tw.Flush()
	return sum
}
