package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"netfence"
	"netfence/internal/core"
)

// rep is one timed run of a workload, measured in a fresh process: the
// run's instance is the process's first build, so no earlier run's heap,
// GC pacing or warmed caches carry over into run_s, cpu_s or mem_sys.
type rep struct {
	// SetupS holds the wall time of every Scenario.Build in the process:
	// first the cold build that runs, then setupBuilds-1 rebuilds after
	// the run, which reuse the heap the process has already grown.
	SetupS []float64 `json:"setup_s"`
	// RunS is the wall time of Instance.Run, probe collection included.
	RunS float64 `json:"run_s"`
	// CPUS is the process CPU time (user+system) spent during Run.
	CPUS float64 `json:"cpu_s"`
	// MemSys is runtime.MemStats.Sys at the end of Run.
	MemSys uint64 `json:"mem_sys"`
	// Limiters counts the live (sender, bottleneck) access limiters at
	// the end of a single-engine run (-1 on a sharded run, whose other
	// replicas are not reachable through the public API).
	Limiters int `json:"limiters"`
	outcome
	Err string `json:"err,omitempty"`
}

// runRep builds the workload and runs it, then times setupBuilds-1 more
// builds, each discarded unrun.
func runRep(w *workload, seed uint64, singleEngine bool) (r rep) {
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	build := func() *netfence.Instance {
		runtime.GC()
		t0 := time.Now()
		in, err := w.scenario(seed, singleEngine).Build()
		r.SetupS = append(r.SetupS, time.Since(t0).Seconds())
		if err != nil {
			r.Err = "build: " + err.Error()
		}
		return in
	}
	in := build()
	if r.Err != "" {
		return r
	}
	runtime.GC()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res := in.Run()
	r.RunS = time.Since(t0).Seconds()
	r.CPUS = cpuSeconds() - cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.MemSys = ms.Sys

	raw, err := json.Marshal(res)
	if err != nil {
		r.Err = "result json: " + err.Error()
		return r
	}
	r.Digest = digest(raw)
	r.Events = in.EventsExecuted()
	r.Counters = in.Counters()
	r.Limiters = accessLimiters(in)
	in.Stop()
	for i := 1; i < setupBuilds && r.Err == ""; i++ {
		if in := build(); in != nil {
			in.Stop()
		}
	}
	return r
}

// accessLimiters sums the live (sender, bottleneck) limiters over every
// access router of a single-engine NetFence run; -1 when not countable.
func accessLimiters(in *netfence.Instance) int {
	cs, ok := in.System.(*core.System)
	if !ok || in.Sharding != nil {
		return -1
	}
	n := 0
	for _, g := range in.Graph.Groups() {
		for _, node := range g.Access {
			if ar := cs.Access(node); ar != nil {
				n += ar.LimiterCount()
			}
		}
	}
	return n
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// childMain is the entry point of a -child process: one rep, reported as
// a single JSON line on stdout.
func childMain(w *workload, seed uint64, singleEngine bool) {
	r := runRep(w, seed, singleEngine)
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "nfbench child:", err)
		os.Exit(1)
	}
}

// spawnRep runs one rep in a child process of this binary, with env
// added to its environment, and waits for it to exit. The context bounds
// the child's lifetime.
func spawnRep(ctx context.Context, w *workload, seed uint64, singleEngine bool, env ...string) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
	if singleEngine {
		args = append(args, "-single")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), env...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("child %s seed %d: %w", w.name, seed, err)
	}
	var r rep
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return rep{}, fmt.Errorf("child %s seed %d: %w", w.name, seed, err)
	}
	if r.Err != "" {
		return r, fmt.Errorf("child %s seed %d: %s", w.name, seed, r.Err)
	}
	return r, nil
}
