// Command netfence-sim regenerates the tables and figures of the
// NetFence paper's evaluation (§6) on the packet-level simulator, and
// runs declarative scenario sweeps across every registered defense.
//
// Figures:
//
//	netfence-sim -list
//	netfence-sim -exp fig9a -scale small
//	netfence-sim -exp fig8 -scale tiny -defense netfence,tva
//	netfence-sim -all -scale tiny
//
// Any comparison figure can be restricted to a subset of the registered
// defense systems with -defense (see -list-defenses).
//
// Scenario-matrix mode fans the paper's collusion scenario over a
// defenses × populations × deployment-fractions × seeds matrix, in
// parallel, one engine per cell, and prints a unified result table.
// -topo swaps the topology for any registered one (see
// -list-topologies): the classic dumbbell, the parking lot, the
// single-AS star hotspot, or the seeded random AS-level graph. -deploy
// sweeps partial deployment: each fraction deploys the defense on that
// share of source ASes, leaving the rest legacy (NetFence demotes their
// traffic to best-effort):
//
//	netfence-sim -sweep -defense netfence,tva,stopit,fq -seeds 1,2,3
//	netfence-sim -sweep -senders 20,40 -bottleneck 4000000 -duration 240
//	netfence-sim -sweep -topo random-as -deploy 0,0.5,1
//
// -attack swaps the static colluder flood for adaptive attack
// strategies (see -list-attacks) and sweeps them as an axis: each
// strategy decides per control tick how the attackers transmit, observes
// the returned congestion policing feedback, and may craft packet
// channels and presented feedback:
//
//	netfence-sim -sweep -attack flood,onoff-sync,replay,legacy-flood
//	netfence-sim -sweep -attack request-prio -defense netfence,tva
//
// Attack strategies expose tunable parameters (-list-attacks prints
// each strategy's ranges and defaults); a sweep axis entry may pin them
// with name:key=val,... syntax:
//
//	netfence-sim -sweep -attack onoff-sync:on=1,off=4,trickle_bps=10000
//
// -search replaces the hand-picked parameters with an adversarial
// search: per (defense × strategy) cell a deterministic seeded
// optimizer (-search-optimizer grid|anneal) hunts the parameter vector
// that minimizes legitimate goodput within -search-budget candidate
// evaluations, prints the worst-found table, optionally writes it as
// JSON (-search-out), and fails the run when NetFence falls below the
// Theorem-1 floor at a searched optimum:
//
//	netfence-sim -search -defense netfence,tva -attack flood,onoff-sync
//	netfence-sim -search -search-optimizer anneal -search-budget 32 -search-out worst.json
//
// Scales: tiny (seconds of wall time, CI), small (default, minutes),
// paper (the full 1000-sender, 4000-simulated-second configuration —
// expect a long run).
//
// -shards N partitions scenario topologies into N per-AS shards, one
// engine per shard, synchronized in lookahead windows with results
// byte-identical to the single engine for the deterministic workload
// set (-1 = one shard per CPU):
//
//	netfence-sim -sweep -shards 4 -senders 128
//	netfence-sim -bench-json -bench-scale large -shards 8
//
// -bench-json emits a machine-readable benchmark baseline (wall time,
// events/s and allocs/event per experiment family) for perf-trajectory
// tracking; the checked-in BENCH_PR*.json files were generated this
// way (CI gates on the newest, BENCH_PR10.json).
// -bench-baseline FILE additionally compares the fresh run against a
// checked-in baseline and exits non-zero when any suite's wall time
// regressed more than 25% (the CI bench smoke gate; with -shards it
// also times a sharded collusion smoke cell). -bench-scale large swaps
// the tiny figure suite for a single large-scale cell — the seeded
// random AS-level topology with >=10k senders — and -bench-scale huge
// raises that to 65,536 senders; with -shards N both run the
// single-engine twin first and report the sharded speedup.
// -bench-scale massive crosses the million-modeled-sender line with
// fleet aggregation (1,024 attachment hosts of weight 1,024 plus 256
// TCP users) and, with -shards N, additionally requires the sharded
// Result JSON byte-identical to the single engine's; massive-smoke is
// the same shape at 16,384 modeled senders for CI.
//
// -cpuprofile and -memprofile write pprof profiles covering the run;
// shard worker goroutines carry pprof labels (shard=<as-range>) so
// profiles attribute hot paths to partitions.
//
// -serve starts the simulation service instead of a batch command: an
// HTTP API that accepts scenario and sweep jobs as JSON, runs them on
// a bounded worker pool, streams timeseries samples over SSE, and
// exposes a live control endpoint feeding mutations into running
// scenarios through the same code path scripted timelines use:
//
//	netfence-sim -serve -addr 127.0.0.1:8080
//	netfence-sim -serve -addr :0 -serve-workers 4 -serve-queue 32
//
// The first SIGINT/SIGTERM drains in-flight jobs gracefully (statuses
// stay readable during the drain); a second signal aborts running jobs
// at their next segment boundary, keeping partial results. Plain batch
// sweeps honor the same signals: completed cells are printed before
// the interrupt error surfaces.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"netfence"
	"netfence/internal/attack"
	"netfence/internal/defense"
	"netfence/internal/exp"
	"netfence/internal/obs"
	"netfence/internal/server"
)

func main() {
	var (
		expName  = flag.String("exp", "", "experiment to run (see -list)")
		scale    = flag.String("scale", "small", "tiny | small | paper")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiments")
		listDef  = flag.Bool("list-defenses", false, "list registered defense systems")
		listTopo = flag.Bool("list-topologies", false, "list registered topologies")
		listAtk  = flag.Bool("list-attacks", false, "list registered attack strategies")
		listMet  = flag.Bool("list-metrics", false, "list the registered metric catalog (name, kind, plane, paper section, meaning)")
		defenses = flag.String("defense", "", "comma-separated defense systems (default: the paper's lineup)")

		metricsOut  = flag.String("metrics-out", "", "write the run's aggregated metrics as Prometheus text to this file (-exp, -sweep, -search, -trace)")
		tracePath   = flag.String("trace", "", "write the flight-recorder packet trace of a single scenario cell to this file (use with -sweep and single-valued axes)")
		traceFlows  = flag.Int("trace-flows", 8, "flows the flight recorder samples per traced run (deterministic seeded selection)")
		traceFormat = flag.String("trace-format", "json", "trace output format: json (event array) | chrome (trace_event for chrome://tracing)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = off")

		shards = flag.Int("shards", 1, "partition scenario topologies into this many per-AS shards, one engine per shard (1 = classic single engine; -1 = one shard per CPU). Applies to -sweep and the -bench-scale large/huge cells; the -exp figures run their Scenarios on the single engine")

		serveMode    = flag.Bool("serve", false, "run the simulation service (HTTP job queue + SSE streaming + live control) instead of a batch command")
		addr         = flag.String("addr", "127.0.0.1:8080", "serve: listen address (use :0 for an ephemeral port)")
		serveWorkers = flag.Int("serve-workers", 2, "serve: jobs run concurrently")
		serveQueue   = flag.Int("serve-queue", 16, "serve: queued-job bound; past it POST /jobs answers 503")

		searchMode   = flag.Bool("search", false, "run the adversarial search instead of a figure: optimize attack parameters per (defense x strategy) cell for maximum damage and print the worst-found table")
		searchBudget = flag.Int("search-budget", 24, "search: candidate evaluations per (defense x strategy) cell")
		searchOpt    = flag.String("search-optimizer", "grid", "search: optimizer (grid | anneal)")
		searchSeed   = flag.Uint64("search-seed", 1, "search: optimizer RNG seed (the report is deterministic in it)")
		searchOut    = flag.String("search-out", "", "search: write the worst-found table as JSON to this file")

		sweep      = flag.Bool("sweep", false, "run the scenario-matrix sweep instead of a figure")
		progress   = flag.Bool("progress", false, "sweep: print per-cell completion progress to stderr")
		topoName   = flag.String("topo", "", "sweep: registered topology name (default: the paper's 9-colluder dumbbell)")
		seeds      = flag.String("seeds", "1", "sweep: comma-separated RNG seeds")
		senders    = flag.String("senders", "20", "sweep: comma-separated sender populations")
		deploy     = flag.String("deploy", "", "sweep: comma-separated deployed source-AS fractions in [0,1] (empty = full deployment)")
		attacks    = flag.String("attack", "", "sweep: comma-separated attack strategies driving the attacker side (empty = the static colluder flood; see -list-attacks)")
		bottleneck = flag.Int64("bottleneck", 4_000_000, "sweep: bottleneck capacity in bps (default dumbbell only; -topo topologies scale it per sender)")
		duration   = flag.Int("duration", 240, "sweep: simulated seconds per cell")
		parallel   = flag.Int("parallelism", 0, "sweep: concurrent cells (0 = GOMAXPROCS)")

		benchJSON  = flag.Bool("bench-json", false, "emit the benchmark baseline as JSON and exit")
		benchScale = flag.String("bench-scale", "tiny", "bench-json: tiny (figure suite) | large (random-as, >=10k senders) | huge (>=65k) | massive (>=1M modeled senders via fleet aggregation) | massive-smoke (CI-sized massive)")
		benchBase  = flag.String("bench-baseline", "", "bench-json: baseline JSON to compare against; exit 1 on >25% wall-time regression")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the run to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	flag.Parse()

	// Profile teardown must survive every exit path — fatal() and the
	// bench-gate os.Exit(1) bypass defers, so they flush explicitly
	// through the idempotent flushProfiles hook.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		prev := profileFinalizers
		profileFinalizers = func() {
			pprof.StopCPUProfile()
			f.Close()
			prev()
		}
	}
	if *memProfile != "" {
		path := *memProfile
		prev := profileFinalizers
		profileFinalizers = func() {
			f, err := os.Create(path)
			if err == nil {
				runtime.GC()
				pprof.Lookup("allocs").WriteTo(f, 0)
				f.Close()
			}
			prev()
		}
	}
	defer flushProfiles()

	// Opt-in pprof surface, on an explicit mux so nothing else rides on
	// http.DefaultServeMux. Works in every mode, -serve included.
	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}

	if *list {
		for _, r := range exp.Runners() {
			fmt.Printf("%-18s %s\n", r.Name, r.Brief)
		}
		return
	}
	if *listDef {
		for _, name := range netfence.Defenses() {
			fmt.Println(name)
		}
		return
	}
	if *listTopo {
		for _, name := range netfence.Topologies() {
			fmt.Println(name)
		}
		return
	}
	if *listAtk {
		listAttacks()
		return
	}
	if *listMet {
		listMetrics()
		return
	}
	if *benchJSON {
		if !runBenchJSON(*benchScale, *benchBase, *shards) {
			flushProfiles()
			os.Exit(1)
		}
		return
	}

	if *serveMode {
		runServe(*addr, *serveWorkers, *serveQueue)
		return
	}

	defenseList, err := parseDefenses(*defenses)
	if err != nil {
		fatal(err)
	}

	if *tracePath != "" {
		if !*sweep {
			fatal(fmt.Errorf("-trace rides on the -sweep scenario cell; add -sweep (with single-valued axes)"))
		}
		runTraced(defenseList, *topoName, *seeds, *senders, *attacks, *bottleneck, *duration, *shards,
			*tracePath, *traceFlows, *traceFormat, *metricsOut)
		return
	}

	if *searchMode {
		runSearch(defenseList, *topoName, *seeds, *senders, *attacks, *bottleneck, *duration, *parallel, *shards,
			*searchBudget, *searchOpt, *searchSeed, *searchOut, *progress, *metricsOut)
		return
	}

	if *sweep {
		attackList, err := parseAttacks(*attacks)
		if err != nil {
			fatal(err)
		}
		runSweep(defenseList, *topoName, *seeds, *senders, *deploy, attackList, *bottleneck, *duration, *parallel, *shards, *progress, *metricsOut)
		return
	}

	sc, err := exp.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	sc.Systems = defenseList
	meter := &netfence.Meter{}
	sc.Meter = meter

	var runners []exp.Runner
	switch {
	case *all:
		runners = exp.Runners()
	case *expName != "":
		r, err := exp.RunnerByName(*expName)
		if err != nil {
			fatal(err)
		}
		runners = []exp.Runner{r}
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, r := range runners {
		if len(defenseList) > 0 && !r.Compares {
			fmt.Fprintf(os.Stderr, "warning: %s is a NetFence-only study; -defense ignored\n", r.Name)
		}
		start := time.Now()
		res := r.Run(sc)
		fmt.Println(res.Table())
		fmt.Printf("(%s, scale=%s, %.1fs wall)\n\n", r.Name, sc.Name, time.Since(start).Seconds())
	}
	// The -exp figures render tables, not Results; the meter's event
	// total across their Scenario runs is the metric they surface.
	writeMetrics(*metricsOut, map[string]uint64{"sim_events_executed_total": meter.Total()})
}

// startPprof serves net/http/pprof on an explicit mux at addr.
func startPprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "netfence-sim: pprof on http://%s/debug/pprof/\n", ln.Addr())
	go http.Serve(ln, mux) //nolint:errcheck — best-effort debug listener
}

// writeMetrics renders a metric map as Prometheus text to path;
// empty path is a no-op.
func writeMetrics(path string, counters map[string]uint64) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := obs.RenderPrometheus(f, counters); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// listMetrics prints the registered metric catalog, generated from the
// same registry the instrumentation compiles against.
func listMetrics() {
	for _, d := range netfence.Metrics() {
		kind := "counter"
		switch d.Kind {
		case obs.Gauge:
			kind = "gauge"
		case obs.Histogram:
			kind = "histogram"
		}
		plane := "deterministic"
		if d.Runtime {
			plane = "runtime"
		}
		fmt.Printf("%-32s %-9s %-13s %-7s %s\n", d.Name, kind, plane, d.Ref, d.Help)
	}
}

// runTraced runs the collusion scenario as one instrumented cell with
// the flight recorder on, prints the result, and writes the merged
// trace (and optionally the metric snapshot, runtime plane included).
func runTraced(defenseList []string, topoName, seedsCSV, sendersCSV, attacksCSV string, bottleneck int64, durationSec, shards int, tracePath string, traceFlows int, format, metricsOut string) {
	seedList, err := parseUints(seedsCSV)
	if err != nil {
		fatal(fmt.Errorf("-seeds: %w", err))
	}
	popList, err := parseInts(sendersCSV)
	if err != nil {
		fatal(fmt.Errorf("-senders: %w", err))
	}
	attackList, err := parseAttacks(attacksCSV)
	if err != nil {
		fatal(err)
	}
	if len(seedList) != 1 || len(popList) != 1 || len(defenseList) > 1 || len(attackList) > 1 {
		fatal(fmt.Errorf("-trace records exactly one cell: give single -seeds/-senders values and at most one -defense/-attack"))
	}
	def := "netfence"
	if len(defenseList) == 1 {
		def = defenseList[0]
	}
	meter := &netfence.Meter{}
	sc := collusionBaseFor(strings.ToLower(strings.TrimSpace(topoName)), bottleneck, durationSec, shards, len(attackList) > 0)(popList[0])
	sc.Name = "collusion-traced"
	sc.Seed = seedList[0]
	sc.Defense = netfence.Defense(def)
	sc.TraceFlows = traceFlows
	sc.Meter = meter
	if len(attackList) == 1 {
		name, params, err := netfence.ParseAttackSpec(attackList[0])
		if err != nil {
			fatal(err)
		}
		for i, w := range sc.Workloads {
			if as, ok := w.(netfence.AttackSpec); ok {
				as.Strategy, as.Params = name, params
				sc.Workloads[i] = as
			}
		}
	}
	in, err := sc.Build()
	if err != nil {
		fatal(err)
	}
	res := in.Run()
	fmt.Println(res.String())

	events := in.Trace()
	f, err := os.Create(tracePath)
	if err != nil {
		fatal(err)
	}
	switch format {
	case "chrome":
		err = obs.WriteChromeTrace(f, events)
	case "json":
		err = obs.WriteTraceJSON(f, events)
	default:
		f.Close()
		fatal(fmt.Errorf("unknown -trace-format %q (json|chrome)", format))
	}
	if err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d events, %d sampled flows)\n", tracePath, len(events), traceFlows)

	if metricsOut != "" {
		agg := map[string]uint64{}
		obs.MergeMap(agg, res.Counters)
		obs.MergeMap(agg, in.RuntimeCounters())
		writeMetrics(metricsOut, agg)
	}
}

// runServe runs the simulation service until a signal arrives. The
// first SIGINT/SIGTERM starts a graceful drain — no new submissions,
// queued jobs cancelled, running jobs allowed to finish, statuses
// readable throughout; a second signal aborts the running jobs at
// their next segment boundary, flushing whatever partial state they
// accumulated.
func runServe(addr string, workers, queueDepth int) {
	s := server.New(server.Config{Addr: addr, Workers: workers, QueueDepth: queueDepth})
	if err := s.Start(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "netfence-sim: serving on http://%s (%d workers, queue %d)\n",
		s.Addr(), workers, queueDepth)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	fmt.Fprintln(os.Stderr, "netfence-sim: draining in-flight jobs (signal again to abort them)")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "netfence-sim: aborting running jobs")
		cancel()
	}()
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// runSweep fans the paper's collusion scenario (25% long-TCP users, 75%
// colluder-bound attackers) over defenses × populations × deployment
// fractions × attacks × seeds, on the default dumbbell or any registered
// topology. Without -attack the attacker side is the classic static
// colluder flood; with it, the attackers are driven by each listed
// adaptive strategy in turn (the Sweep.Attacks axis).
func runSweep(defenseList []string, topoName, seedsCSV, sendersCSV, deployCSV string, attackList []string, bottleneck int64, durationSec, parallelism, shards int, showProgress bool, metricsOut string) {
	seedList, err := parseUints(seedsCSV)
	if err != nil {
		fatal(fmt.Errorf("-seeds: %w", err))
	}
	popList, err := parseInts(sendersCSV)
	if err != nil {
		fatal(fmt.Errorf("-senders: %w", err))
	}
	deployList, err := parseFloats(deployCSV)
	if err != nil {
		fatal(fmt.Errorf("-deploy: %w", err))
	}
	if len(defenseList) == 0 {
		defenseList = []string{"netfence", "tva", "stopit", "fq"}
	}
	// Mirror the registry's canonicalization so alternate spellings
	// ("ParkingLot") hit the parking-lot special case below. An unknown
	// name surfaces from the registry when the first cell builds, with
	// the registered-names message.
	topoName = strings.ToLower(strings.TrimSpace(topoName))

	meter := &netfence.Meter{}
	baseFor := collusionBaseFor(topoName, bottleneck, durationSec, shards, len(attackList) > 0)
	sw := netfence.Sweep{
		Base: netfence.Scenario{Name: "collusion"},
		// The role split depends on the population, so each population
		// cell rebuilds the scenario through BaseFor.
		BaseFor: func(pop int) netfence.Scenario {
			sc := baseFor(pop)
			sc.Meter = meter
			return sc
		},
		Defenses:        defenseList,
		Populations:     popList,
		DeployFractions: deployList,
		Attacks:         attackList,
		Seeds:           seedList,
		Parallelism:     parallelism,
	}
	if showProgress {
		sw.Progress = func(done, total int, cell string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, cell)
		}
	}

	// SIGINT/SIGTERM checkpoint the sweep: in-flight cells finish, the
	// completed results print, and the interrupt error surfaces last.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	results, err := sw.RunContext(ctx)
	// A failing cell must not throw away the completed cells' work:
	// print what finished, then the error.
	completed := 0
	for _, r := range results {
		if r != nil {
			completed++
		}
	}
	if completed > 0 {
		fmt.Print(netfence.FormatResults(results))
		fmt.Printf("\n(%d/%d cells, %.1fs wall)\n", completed, len(results), time.Since(start).Seconds())
	}
	if metricsOut != "" {
		agg := map[string]uint64{}
		for _, r := range results {
			if r != nil {
				obs.MergeMap(agg, r.Counters)
			}
		}
		agg["sim_events_executed_total"] = meter.Total()
		writeMetrics(metricsOut, agg)
	}
	if err != nil {
		fatal(err)
	}
}

// collusionBaseFor builds the population-parameterized base scenario
// shared by -sweep and -search: the paper's collusion mix (25%
// long-TCP users, 75% colluder-bound attackers) on the default
// dumbbell or any registered topology. useAttackSpec swaps the static
// colluder flood for an AttackSpec driven by the attack subsystem —
// the workload the Attacks axis re-targets and the search tunes.
func collusionBaseFor(topoName string, bottleneck int64, durationSec, shards int, useAttackSpec bool) func(pop int) netfence.Scenario {
	// collusionWorkloads splits a sender group 25% long-TCP users / 75%
	// colluder-bound attackers.
	collusionWorkloads := func(group, senders int) []netfence.Workload {
		users := senders / 4
		if users == 0 && senders > 0 {
			users = 1
		}
		atk := netfence.Workload(netfence.ColluderPairs{
			Group: group, Senders: netfence.Range(users, senders), RateBps: 1_000_000,
		})
		if useAttackSpec {
			atk = netfence.AttackSpec{
				Group: group, Senders: netfence.Range(users, senders),
				RateBps: 1_000_000, ToColluders: true,
			}
		}
		return []netfence.Workload{
			netfence.LongTCP{Group: group, Senders: netfence.Range(0, users)},
			atk,
		}
	}
	return func(pop int) netfence.Scenario {
		var spec netfence.TopologySpec
		var wl []netfence.Workload
		switch topoName {
		case "":
			spec = netfence.DumbbellSpec{Senders: pop, BottleneckBps: bottleneck, ColluderASes: 9}
			wl = collusionWorkloads(0, pop)
		case "parkinglot":
			// The parking lot splits the population over three
			// sender groups: round the requested population down to
			// a multiple of 3 and attach the collusion mix to each.
			if pop -= pop % 3; pop < 3 {
				pop = 3
			}
			spec = netfence.RegisteredTopology{Name: topoName, Population: pop}
			for g := 0; g < 3; g++ {
				wl = append(wl, collusionWorkloads(g, pop/3)...)
			}
		default:
			// Registered topologies own their scaling: the in-tree
			// defaults keep a 200 kbps per-sender fair share and
			// include colluder ASes.
			spec = netfence.RegisteredTopology{Name: topoName, Population: pop}
			wl = collusionWorkloads(0, pop)
		}
		return netfence.Scenario{
			Topology:  spec,
			Workloads: wl,
			Duration:  netfence.Time(durationSec) * netfence.Second,
			Shards:    shards, // -1 is netfence.AutoShards
		}
	}
}

// runSearch drives the adversarial search over the collusion scenario:
// per (defense × strategy) cell a seeded optimizer tunes the
// strategy's declared parameters for maximum legit-goodput
// suppression. The worst-found table prints as text (and JSON with
// -search-out); the run fails when NetFence falls below the Theorem-1
// floor at a searched optimum.
func runSearch(defenseList []string, topoName, seedsCSV, sendersCSV, attacksCSV string, bottleneck int64, durationSec, parallelism, shards, budget int, optimizer string, searchSeed uint64, outPath string, showProgress bool, metricsOut string) {
	seedList, err := parseUints(seedsCSV)
	if err != nil {
		fatal(fmt.Errorf("-seeds: %w", err))
	}
	popList, err := parseInts(sendersCSV)
	if err != nil {
		fatal(fmt.Errorf("-senders: %w", err))
	}
	// The search already sweeps (defense × strategy × candidate); a
	// multi-valued population or seed axis belongs to -sweep.
	if len(seedList) != 1 || len(popList) != 1 {
		fatal(fmt.Errorf("-search takes exactly one -seeds value and one -senders value (got %v, %v); use -sweep for axes", seedList, popList))
	}
	var strategies []string
	if strings.TrimSpace(attacksCSV) != "" {
		specs, err := attack.ParseSpecList(attacksCSV)
		if err != nil {
			fatal(err)
		}
		for _, s := range specs {
			if len(s.Params) > 0 {
				fatal(fmt.Errorf("-search tunes attack parameters itself; drop the overrides from %q (use -sweep to pin them)", s))
			}
			strategies = append(strategies, s.Strategy)
		}
	}
	if len(defenseList) == 0 {
		defenseList = []string{"netfence", "tva", "stopit", "fq"}
	}
	base := collusionBaseFor(strings.ToLower(strings.TrimSpace(topoName)), bottleneck, durationSec, shards, true)(popList[0])
	base.Name = "collusion"
	base.Seed = seedList[0]
	meter := &netfence.Meter{}
	base.Meter = meter

	spec := netfence.SearchSpec{
		Base:        base,
		Defenses:    defenseList,
		Strategies:  strategies,
		Optimizer:   optimizer,
		Budget:      budget,
		Seed:        searchSeed,
		Parallelism: parallelism,
	}
	if showProgress {
		spec.Progress = func(done, total int, cell string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, cell)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	rep, err := spec.RunContext(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.Table())
	evals := 0
	for _, row := range rep.Rows {
		evals += row.Evals
	}
	fmt.Printf("\n(%d cells, %d candidates, %.1fs wall)\n", len(rep.Rows), evals, time.Since(start).Seconds())
	if outPath != "" {
		js, err := rep.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(js, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	}
	writeMetrics(metricsOut, map[string]uint64{"sim_events_executed_total": meter.Total()})
	if err := rep.Gate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flushProfiles()
		os.Exit(1)
	}
}

// listAttacks prints every registered strategy with its tunable
// parameter surface, generated from the registered ParamSpecs.
func listAttacks() {
	for _, name := range netfence.Attacks() {
		fmt.Println(name)
		specs, err := netfence.AttackParams(name)
		if err != nil {
			fatal(err)
		}
		for _, p := range specs {
			fmt.Printf("  %-12s %-6s [%v, %v]  default %v  %s\n",
				p.Name, p.Type(), p.Min, p.Max, p.Default, p.Desc)
		}
	}
}

// parseDefenses validates a comma-separated defense list against the
// registry.
func parseDefenses(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	registered := map[string]bool{}
	for _, n := range netfence.Defenses() {
		registered[n] = true
	}
	var out []string
	for _, f := range strings.Split(csv, ",") {
		name := strings.TrimSpace(f)
		if name == "" {
			continue
		}
		canonical := defense.Canonical(name)
		if !registered[canonical] {
			return nil, fmt.Errorf("unknown defense %q (registered: %s)",
				name, strings.Join(netfence.Defenses(), ", "))
		}
		out = append(out, canonical)
	}
	return out, nil
}

// parseAttacks validates a comma-separated attack list — names or
// parameterized specs ("onoff-sync:on=1,off=4") — against the attack
// registry, returning canonical spec strings for the Sweep axis. A
// malformed spec fails fast with the strategy and offending key named.
func parseAttacks(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	specs, err := attack.ParseSpecList(csv)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.String()
	}
	return out, nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func parseFloats(csv string) ([]float64, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseUints(csv string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(csv, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// benchNames is the fixed experiment-family suite timed by -bench-json:
// one per major simulation shape (capability channel, collusion,
// multi-bottleneck, analytic bound, incremental deployment, adaptive
// adversaries).
var benchNames = []string{"fig8", "fig9a", "fig10", "theorem", "deploy", "strategic", "worstcase"}

// benchRow is one timed suite in the -bench-json report. EventsPerSec and
// AllocsPerOp are measured over every engine the suite drives (an "op" is
// one executed simulator event): the zero-allocation hot path shows up
// directly as allocs_per_op approaching zero.
type benchRow struct {
	Name        string  `json:"name"`
	Scale       string  `json:"scale"`
	WallSeconds float64 `json:"wall_seconds"`
	Events      uint64  `json:"events"`
	EventsPer   float64 `json:"events_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// HeapAllocPeak and SysBytes snapshot memory at the row boundary
	// (ReadMemStats right after the suite returns, before the next
	// GC): live heap bytes and total bytes obtained from the OS. They
	// bound the suite's working set; the bench gate ignores both.
	HeapAllocPeak uint64 `json:"heap_alloc_peak"`
	SysBytes      uint64 `json:"sys_bytes"`
	// CandidatesPerSec is set on the adversarial-search row only:
	// evaluated attack configurations per wall second.
	CandidatesPerSec float64 `json:"candidates_per_sec,omitempty"`
	// SerializedNs lists each shard's accumulated execute-round wall
	// nanoseconds on sharded cells — the serialized portion of the
	// parallel run, whose maximum bounds the achievable speedup. The
	// bench gate ignores it.
	SerializedNs []int64 `json:"serialized_ns,omitempty"`
	// Counters is the suite's metric snapshot (deterministic and
	// runtime planes merged: drops by reason, per-shard event counts,
	// handoff batches) on single-scenario rows; nil on the figure rows,
	// whose runners render tables, not Results. The bench gate ignores
	// it.
	Counters map[string]uint64 `json:"counters,omitempty"`
}

type benchReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS and Hostname identify the execution environment behind
	// a baseline, so cross-machine comparisons are visibly apples to
	// oranges.
	GOMAXPROCS int        `json:"gomaxprocs"`
	Hostname   string     `json:"hostname,omitempty"`
	Rows       []benchRow `json:"benchmarks"`
}

// timeSuite runs fn once, accounting wall time, heap allocations
// (process-wide) and simulator events through a fresh per-suite Meter
// handed to fn — so concurrent engines elsewhere in the process (or a
// paused suite's leftovers) never leak into the row. fn may return a
// metric snapshot to attach to the row.
func timeSuite(name, scale string, fn func(m *netfence.Meter) map[string]uint64) benchRow {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	meter := &netfence.Meter{}
	start := time.Now()
	counters := fn(meter)
	wall := time.Since(start).Seconds()
	events := meter.Total()
	runtime.ReadMemStats(&m1)
	row := benchRow{
		Name: name, Scale: scale, WallSeconds: wall, Events: events, Counters: counters,
		HeapAllocPeak: m1.HeapAlloc, SysBytes: m1.Sys,
	}
	if wall > 0 {
		row.EventsPer = float64(events) / wall
	}
	if events > 0 {
		row.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(events)
	}
	return row
}

// runBenchJSON times the benchmark suite and emits a JSON baseline, so
// successive PRs can track the perf trajectory (the checked-in
// BENCH_PR*.json files; CI gates on BENCH_PR10.json). With a baseline
// file it also enforces the <=25% wall-time regression gate, returning
// false on violation. A suite over budget is retried up to twice and
// judged on its best time, so a transient co-tenant spike on a shared
// runner does not fail the build — a genuine regression reproduces on
// every attempt.
//
// shards > 1 adds sharded cells: a small partitioned collusion scenario
// at the tiny scale (the CI sharded smoke), and a sharded run of the
// large/huge cell next to its single-engine twin with the
// events-per-second speedup reported on stderr — the headline number of
// the parallel executor. Each sharded tiny/large/huge cell also runs a
// Passport-enabled twin.
func runBenchJSON(scale, baselinePath string, shards int) bool {
	baseline := map[string]float64{}
	if baselinePath != "" {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			fatal(err)
		}
		var base benchReport
		if err := json.Unmarshal(raw, &base); err != nil {
			fatal(err)
		}
		for _, r := range base.Rows {
			baseline[r.Name] = r.WallSeconds
		}
	}
	// measure runs one suite, retrying over-budget results.
	measure := func(name, scName string, fn func(m *netfence.Meter) map[string]uint64) benchRow {
		row := timeSuite(name, scName, fn)
		budget, gated := baseline[name]
		for attempt := 0; gated && budget > 0 && row.WallSeconds > 1.25*budget && attempt < 2; attempt++ {
			fmt.Fprintf(os.Stderr, "bench: %s over budget (%.2fs vs %.2fs), retrying\n",
				name, row.WallSeconds, budget)
			if again := timeSuite(name, scName, fn); again.WallSeconds < row.WallSeconds {
				row = again
			}
		}
		return row
	}
	// annotate stamps a sharded cell's row with the per-shard
	// serialized execute time.
	annotate := func(row *benchRow, sh *netfence.Sharding) {
		if sh != nil {
			row.SerializedNs = sh.SerializedNanos()
		}
	}
	// measureSharded is measure for scenario-driven sharded cells, with
	// the row annotated from the (last attempt's) Sharding.
	measureSharded := func(name, scName string, mk func(m *netfence.Meter) netfence.Scenario) benchRow {
		var shInfo *netfence.Sharding
		row := measure(name, scName, func(m *netfence.Meter) map[string]uint64 {
			c, _, sh := runBenchScenarioFull(mk(m))
			shInfo = sh
			return c
		})
		annotate(&row, shInfo)
		return row
	}
	// passportCell measures the Passport-enabled form of a sharded cell
	// scenario — per-packet source-AS authentication, validated inline.
	// The row keeps its historical "-nopipe" suffix so the checked-in
	// baselines still gate it.
	passportCell := func(name, scName string, mk func(m *netfence.Meter) netfence.Scenario) benchRow {
		return measureSharded(name+"-nopipe", scName, func(m *netfence.Meter) netfence.Scenario {
			sc := mk(m)
			sc.Name = name
			sc.Defense = netfence.DefenseSpec{Name: "netfence", Config: passportConfig()}
			return sc
		})
	}

	hostname, _ := os.Hostname()
	rep := benchReport{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Hostname:   hostname,
	}
	switch scale {
	case "tiny":
		sc, err := exp.ScaleByName("tiny")
		if err != nil {
			fatal(err)
		}
		for _, name := range benchNames {
			r, err := exp.RunnerByName(name)
			if err != nil {
				fatal(err)
			}
			rep.Rows = append(rep.Rows, measure(name, sc.Name, func(m *netfence.Meter) map[string]uint64 {
				scm := sc
				scm.Meter = m
				r.Run(scm)
				return nil
			}))
		}
		if shards > 1 || shards == -1 {
			n := displayShards(shards)
			rep.Rows = append(rep.Rows, measureSharded(fmt.Sprintf("collusion-shards%d", n), "tiny",
				func(m *netfence.Meter) netfence.Scenario { return shardedSmokeScenario(shards, n, m) }))
			rep.Rows = append(rep.Rows, passportCell(fmt.Sprintf("collusion-passport-shards%d", n), "tiny",
				func(m *netfence.Meter) netfence.Scenario { return shardedSmokeScenario(shards, n, m) }))
		}
		// The adversarial-search row: throughput of the optimizer loop
		// itself, in candidates per second.
		evals := 0
		searchRow := measure("search", "tiny", func(m *netfence.Meter) map[string]uint64 {
			evals = runSearchBench(m)
			return nil
		})
		if searchRow.WallSeconds > 0 {
			searchRow.CandidatesPerSec = float64(evals) / searchRow.WallSeconds
		}
		rep.Rows = append(rep.Rows, searchRow)
	case "large", "huge":
		// The headroom demonstration: one cell on the seeded random
		// AS-level topology with >=10k senders (large) or >=65k senders
		// (huge) — populations two to three orders of magnitude beyond
		// the tiny figure suite, tractable with the pooled hot path and,
		// sharded, with one engine per partition. With -shards the
		// single-engine twin runs first so the report carries both rows
		// and the events-per-second speedup is printed.
		mkCell := largeScenario
		if scale == "huge" {
			mkCell = hugeScenario
		}
		single := measure("random-as-"+scale, scale,
			func(m *netfence.Meter) map[string]uint64 { return runBenchScenario(mkCell(1, m)) })
		rep.Rows = append(rep.Rows, single)
		if shards > 1 || shards == -1 {
			n := displayShards(shards)
			sharded := measureSharded(fmt.Sprintf("random-as-%s-shards%d", scale, n), scale,
				func(m *netfence.Meter) netfence.Scenario { return mkCell(shards, m) })
			rep.Rows = append(rep.Rows, sharded)
			if sharded.WallSeconds > 0 && single.WallSeconds > 0 {
				fmt.Fprintf(os.Stderr, "sharded speedup (%s, %d shards): %.2fx wall, %.2fx events/sec\n",
					scale, n, single.WallSeconds/sharded.WallSeconds, sharded.EventsPer/single.EventsPer)
			}
			rep.Rows = append(rep.Rows, passportCell(fmt.Sprintf("random-as-%s-passport-shards%d", scale, n), scale,
				func(m *netfence.Meter) netfence.Scenario { return mkCell(shards, m) }))
		}
	case "massive", "massive-smoke":
		// The million-sender demonstration: fleet aggregation carries a
		// modeled population two orders of magnitude beyond the huge
		// cell's host count, and the cell itself proves determinism by
		// re-running at the requested shard count and requiring the
		// Result JSON byte-identical to the single engine's.
		p := massiveFull
		if scale == "massive-smoke" {
			p = massiveSmoke
		}
		name := "random-as-" + scale
		var singleJSON, shardedJSON string
		single := measure(name, scale, func(m *netfence.Meter) map[string]uint64 {
			c, raw := runBenchScenarioJSON(massiveScenario(name, p, 1, m))
			singleJSON = raw
			return c
		})
		rep.Rows = append(rep.Rows, single)
		fmt.Fprintf(os.Stderr, "%s: %d modeled senders over %d hosts (%d fleet attachments, weight %d)\n",
			name, p.population(), p.users+p.hosts, p.hosts, p.weight)
		if shards > 1 || shards == -1 {
			n := displayShards(shards)
			var shInfo *netfence.Sharding
			sharded := measure(fmt.Sprintf("%s-shards%d", name, n), scale,
				func(m *netfence.Meter) map[string]uint64 {
					c, raw, sh := runBenchScenarioFull(massiveScenario(name, p, shards, m))
					shardedJSON = raw
					shInfo = sh
					return c
				})
			annotate(&sharded, shInfo)
			rep.Rows = append(rep.Rows, sharded)
			if shardedJSON != singleJSON {
				fmt.Fprintf(os.Stderr, "%s: sharded Result diverged from the single engine\n", name)
				return false
			}
			fmt.Fprintf(os.Stderr, "%s: sharded Result byte-identical to the single engine (%d shards)\n", name, n)
			if sharded.WallSeconds > 0 && single.WallSeconds > 0 {
				fmt.Fprintf(os.Stderr, "sharded speedup (%s, %d shards): %.2fx wall, %.2fx events/sec\n",
					scale, n, single.WallSeconds/sharded.WallSeconds, sharded.EventsPer/single.EventsPer)
			}
		}
	default:
		fatal(fmt.Errorf("unknown -bench-scale %q (tiny|large|huge|massive|massive-smoke)", scale))
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if baselinePath == "" {
		return true
	}
	ok := true
	for _, r := range rep.Rows {
		want, found := baseline[r.Name]
		if !found || want <= 0 {
			continue
		}
		if ratio := r.WallSeconds / want; ratio > 1.25 {
			fmt.Fprintf(os.Stderr, "bench regression: %s took %.2fs vs baseline %.2fs (+%.0f%%)\n",
				r.Name, r.WallSeconds, want, 100*(ratio-1))
			ok = false
		}
	}
	return ok
}

// displayShards resolves the -shards value for bench row names and
// speedup reports: -1 (auto) displays as the CPU count. Scenarios get
// the raw flag value instead — -1 is netfence.AutoShards, which clamps
// to the topology's AS count rather than failing fast — so the display
// can overstate the realized count only on machines with more CPUs
// than the topology has ASes.
func displayShards(shards int) int {
	if shards == -1 {
		return runtime.GOMAXPROCS(0)
	}
	return shards
}

// shardedSmokeScenario builds the CI sharded bench cell: the collusion
// mix on a mid-size dumbbell, partitioned — small enough for the bench
// smoke step, big enough that the mailbox handoff and window barriers
// carry real traffic.
func shardedSmokeScenario(shards, label int, m *netfence.Meter) netfence.Scenario {
	const pop = 128
	users := pop / 4
	return netfence.Scenario{
		Name:     fmt.Sprintf("collusion-shards%d", label),
		Seed:     1,
		Topology: netfence.DumbbellSpec{Senders: pop, BottleneckBps: pop * 100_000, ColluderASes: 9},
		Defense:  netfence.Defense("netfence"),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: netfence.Range(0, users)},
			netfence.ColluderPairs{Senders: netfence.Range(users, pop), RateBps: 1_000_000},
		},
		Duration: 20 * netfence.Second,
		Warmup:   10 * netfence.Second,
		Shards:   shards,
		Meter:    m,
	}
}

// passportConfig is the NetFence configuration with Passport source-AS
// authentication enabled — the CMAC-heaviest configuration.
func passportConfig() netfence.Config {
	cfg := netfence.DefaultConfig()
	cfg.Passport = true
	return cfg
}

// runBenchScenario drives one scenario-driven bench cell and returns
// its merged metric snapshot: the deterministic plane from the Result
// plus the runtime plane (per-shard event counts, handoff batches).
func runBenchScenario(sc netfence.Scenario) map[string]uint64 {
	counters, _ := runBenchScenarioJSON(sc)
	return counters
}

// runBenchScenarioJSON additionally returns the canonical Result JSON,
// so cells that run the same scenario at several shard counts can
// assert byte-identity (the massive cell's determinism check).
func runBenchScenarioJSON(sc netfence.Scenario) (map[string]uint64, string) {
	counters, raw, _ := runBenchScenarioFull(sc)
	return counters, raw
}

// runBenchScenarioFull is runBenchScenarioJSON plus the run's Sharding
// (nil on the single engine), for rows recording per-shard serialized
// time.
func runBenchScenarioFull(sc netfence.Scenario) (map[string]uint64, string, *netfence.Sharding) {
	in, err := sc.Build()
	if err != nil {
		fatal(err)
	}
	res := in.Run()
	fmt.Fprintln(os.Stderr, res.String())
	raw, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	counters := map[string]uint64{}
	obs.MergeMap(counters, res.Counters)
	obs.MergeMap(counters, in.RuntimeCounters())
	return counters, string(raw), in.Sharding
}

// runSearchBench is the adversarial-search bench cell: a small
// annealed search (two strategies against TVA+ on the collusion
// dumbbell), returning the number of evaluated candidates so the row
// can report candidates/sec.
func runSearchBench(m *netfence.Meter) int {
	base := collusionBaseFor("", 4_000_000, 40, 1, true)(20)
	base.Meter = m
	rep, err := netfence.SearchSpec{
		Base:       base,
		Defenses:   []string{"tva"},
		Strategies: []string{"flood", "onoff-sync"},
		Optimizer:  "anneal",
		Budget:     6,
		Seed:       1,
	}.Run()
	if err != nil {
		fatal(err)
	}
	evals := 0
	for _, row := range rep.Rows {
		evals += row.Evals
	}
	fmt.Fprint(os.Stderr, rep.Table())
	return evals
}

// largeScenario builds the large bench scenario: 10,240 senders (25%
// long-running TCP users, 75% flooding attackers) over the random-as
// transit core, NetFence fully deployed, partitioned into the given
// number of per-AS shards (1 = the classic single engine).
func largeScenario(shards int, m *netfence.Meter) netfence.Scenario {
	const pop = 10_240
	users := pop / 4
	return netfence.Scenario{
		Name: "random-as-large",
		Seed: 1,
		Topology: netfence.RandomASSpec{
			Senders: pop,
			// 100 kbps fair share at the exit bottleneck: a 2x
			// congested link once the attacker side offers its 200 kbps
			// per sender, keeping the paper's operating regime at 500x
			// the tiny-scale population.
			BottleneckBps: pop * 100_000,
			SrcASes:       32,
			ColluderASes:  9,
		},
		Defense: netfence.Defense("netfence"),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: netfence.Range(0, users)},
			netfence.AttackSpec{Senders: netfence.Range(users, pop), RateBps: 200_000, ToColluders: true},
		},
		Duration: 20 * netfence.Second,
		Warmup:   10 * netfence.Second,
		Shards:   shards,
		Meter:    m,
	}
}

// runHugeCell is the huge bench scenario: 65,536 senders over a larger
// random AS-level core — the regime the paper's §6 argues about
// (hundreds of thousands of senders per bottleneck), reachable in one
// process by partitioning the topology across engines. The routing
// tables stay small thanks to stub compression; the per-AS shard count
// (64 source ASes, 8 transit ASes) leaves the partitioner room up to
// dozens of shards.
func hugeScenario(shards int, m *netfence.Meter) netfence.Scenario {
	const pop = 65_536
	users := pop / 4
	return netfence.Scenario{
		Name: "random-as-huge",
		Seed: 1,
		Topology: netfence.RandomASSpec{
			Senders:       pop,
			BottleneckBps: pop * 100_000,
			SrcASes:       64,
			TransitASes:   8,
			ExtraLinks:    4,
			ColluderASes:  9,
		},
		Defense: netfence.Defense("netfence"),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: netfence.Range(0, users)},
			netfence.AttackSpec{Senders: netfence.Range(users, pop), RateBps: 200_000, ToColluders: true},
		},
		Duration: 10 * netfence.Second,
		Warmup:   5 * netfence.Second,
		Shards:   shards,
		Meter:    m,
	}
}

// massiveParams sizes a fleet-aggregated bench cell: `hosts` fleet
// attachment hosts each standing for `weight` modeled attackers, next
// to `users` individually-modeled TCP users. The full cell crosses the
// million-modeled-sender line; the smoke variant keeps the same shape
// at a population that finishes in seconds for CI.
type massiveParams struct {
	users   int   // individually modeled LongTCP users
	hosts   int   // fleet attachment hosts
	weight  int   // modeled attackers per attachment host
	rateBps int64 // per-modeled-attacker offered load

	srcASes, transitASes, extraLinks int

	duration, warmup netfence.Time
}

// population returns the total modeled sender count of the cell.
func (p massiveParams) population() int { return p.users + p.hosts*p.weight }

var (
	// massiveFull: 1,048,576 modeled attackers over 1,024 attachment
	// hosts (weight 1,024) plus 256 TCP users — a 2x-congested
	// bottleneck once the fleet offers 2 kbps per modeled sender.
	massiveFull = massiveParams{
		users: 256, hosts: 1024, weight: 1024, rateBps: 2_000,
		srcASes: 64, transitASes: 8, extraLinks: 4,
		duration: 10 * netfence.Second, warmup: 5 * netfence.Second,
	}
	// massiveSmoke: the same shape at 16,384 modeled attackers,
	// seconds-fast for the CI smoke step.
	massiveSmoke = massiveParams{
		users: 64, hosts: 256, weight: 64, rateBps: 2_000,
		srcASes: 16, transitASes: 4, extraLinks: 2,
		duration: 5 * netfence.Second, warmup: 2 * netfence.Second,
	}
)

// massiveScenario builds the fleet-aggregated random-as cell. The
// topology carries users+hosts physical sender hosts; the FleetSpec
// stamps each attachment host with its modeled weight, so the access
// routers police weight-scaled aggregates and the partitioner balances
// shards by modeled load. The bottleneck is sized to the modeled
// population (1 kbps fair share), keeping the 2x-congested operating
// regime of the large and huge cells.
func massiveScenario(name string, p massiveParams, shards int, m *netfence.Meter) netfence.Scenario {
	physical := p.users + p.hosts
	return netfence.Scenario{
		Name: name,
		Seed: 1,
		Topology: netfence.RandomASSpec{
			Senders:       physical,
			BottleneckBps: int64(p.population()) * 1_000,
			SrcASes:       p.srcASes,
			TransitASes:   p.transitASes,
			ExtraLinks:    p.extraLinks,
			ColluderASes:  9,
		},
		Defense: netfence.Defense("netfence"),
		Workloads: []netfence.Workload{
			netfence.LongTCP{Senders: netfence.Range(0, p.users)},
			netfence.FleetSpec{
				Count:    p.hosts * p.weight,
				Senders:  netfence.Range(p.users, physical),
				RateBps:  p.rateBps,
				Attacker: true,
			},
		},
		Duration: p.duration,
		Warmup:   p.warmup,
		Shards:   shards,
		Meter:    m,
	}
}

// profileFinalizers chains the -cpuprofile/-memprofile teardown;
// flushProfiles runs it exactly once, on normal return or before any
// explicit os.Exit (which would bypass defers and truncate the profiles).
var (
	profileFinalizers = func() {}
	profilesFlushed   bool
)

func flushProfiles() {
	if profilesFlushed {
		return
	}
	profilesFlushed = true
	profileFinalizers()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	flushProfiles()
	os.Exit(2)
}
