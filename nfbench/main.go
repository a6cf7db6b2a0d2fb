// Command nfbench is the repository benchmark: a closed-loop harness that
// runs one NetFence workload at a time, one run after another, through
// the root netfence API (Scenario.Build, then Instance.Run), checks every
// Result against a reference, and prints the end-to-end metrics — or,
// with -trace 1, the per-layer metrics of a separate traced run.
//
//	nfbench -workload collusion-dumbbell -seed 1 -seconds 36 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Each timed run executes in a
// fresh child process of this binary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// Run-length and lifetime limits.
const (
	// minReps is the fewest timed runs a report is made of.
	minReps = 3
	// setupBuilds is how many times each timed run builds its scenario;
	// setup_s is the median over every build of every run.
	setupBuilds = 15
	// budget bounds the whole invocation, children included.
	budget = 170 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed (Scenario.Seed)")
		seconds = flag.Float64("seconds", 36, "timed run length in seconds")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run instead of the end-to-end runs")
		child   = flag.Bool("child", false, "internal: run one rep and print it as JSON")
		single  = flag.Bool("single", false, "internal: force the single engine (with -child)")
		pin     = flag.Bool("pin", false, "print the default-seed references in reference.json form")
	)
	flag.Parse()
	if *pin {
		if err := pinAll(); err != nil {
			fatal(err)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *child {
		childMain(w, *seed, *single)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	fmt.Printf("host calibration: %.1f ns/op (stdlib-only kernel, not a gate metric)\n", calibrate())
	var rep report
	if *trace == 1 {
		rep, err = traced(ctx, w, *seed)
	} else {
		rep, err = endToEnd(ctx, w, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nfbench:", err)
	os.Exit(1)
}

// endToEnd times fresh-process runs of the workload until the run length
// is spent (at least minReps) and reports the medians.
func endToEnd(ctx context.Context, w *workload, seed uint64, seconds float64) (report, error) {
	ref, err := reference(ctx, w, seed)
	if err != nil {
		return report{}, err
	}
	g := &gate{ref: ref}
	start := time.Now()
	// mem_peak_bytes is the MemStats.Sys of one run under the
	// stop-the-world collector, checked like every other run and counted
	// in the run length. Under the default concurrent collector, how far
	// the heap overshoots its goal before marking ends depends on host
	// timing, so Sys, which grows in 4 MiB heap chunks, lands a chunk
	// higher or lower from run to run (16.0 or 20.4 MB on fleet-million
	// on a 2-vCPU VM); a stop-the-world collection point depends only on
	// the allocation sequence.
	var mem float64
	m, spawnErr := spawnRep(ctx, w, seed, false, "GODEBUG=gcstoptheworld=1")
	if err := g.observe(&m.outcome, spawnErr); err != nil {
		fmt.Fprintf(os.Stderr, "nfbench: %s seed %d memory run failed: %v\n", w.name, seed, err)
	}
	if spawnErr == nil {
		mem = float64(m.MemSys)
		fmt.Printf("memory run: mem %.0fB events %d digest %.12s\n", mem, m.Events, m.Digest)
	}
	// Start another timed run only while it is expected to end within
	// the run length (the first minReps always run) and well within the
	// budget, judged by the mean run so far.
	var setup, run, cpu []float64
	for timed := 0; ; timed++ {
		n := time.Duration(g.attempted)
		elapsed := time.Since(start)
		if timed >= minReps && (elapsed+elapsed/n).Seconds() > seconds {
			break
		}
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < 2*elapsed/n {
			break
		}
		r, spawnErr := spawnRep(ctx, w, seed, false)
		if err := g.observe(&r.outcome, spawnErr); err != nil {
			fmt.Fprintf(os.Stderr, "nfbench: %s seed %d run %d failed: %v\n", w.name, seed, g.attempted, err)
		}
		if spawnErr != nil {
			continue
		}
		// A run whose output fails the check still measured the program.
		setup = append(setup, r.SetupS...)
		run = append(run, r.RunS)
		cpu = append(cpu, r.CPUS)
		fmt.Printf("run %d: setup %.4fs run %.3fs cpu %.3fs mem %.0fB events %d digest %.12s\n",
			g.attempted, median(r.SetupS), r.RunS, r.CPUS, float64(r.MemSys), r.Events, r.Digest)
	}
	fmt.Printf("fail_ratio: %g (%d of %d runs failed)\n", float64(g.failed)/float64(g.attempted), g.failed, g.attempted)
	rep := report{Correct: g.failed == 0 && len(run) > 0, Attempted: g.attempted, Failed: g.failed}
	rep.Metrics = map[string]metric{
		"setup_s":        {median(setup), "s"},
		"run_s":          {median(run), "s"},
		"cpu_s":          {median(cpu), "s"},
		"mem_peak_bytes": {mem, "B"},
	}
	return rep, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// pinAll runs every workload once on the default seed and prints the
// references as reference.json: a single-engine workload's own outcome,
// a sharded workload's single-engine twin.
func pinAll() error {
	ctx := context.Background()
	all := map[string]*outcome{}
	for i := range workloads {
		w := &workloads[i]
		r, err := spawnRep(ctx, w, defaultSeed, w.sharded)
		if err != nil {
			return err
		}
		all[w.name] = &r.outcome
		if w.sharded {
			all[w.name] = twin(r.outcome)
		}
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
