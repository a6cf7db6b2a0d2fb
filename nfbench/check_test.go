package main

import (
	"maps"
	"strings"
	"testing"
)

// TestCheckBites runs collusion-dumbbell once on the default seed and
// shows the output check passes the real run against the pinned
// reference, and counts the run as failed once the reference digest, the
// counter snapshot or the event count is tampered with.
func TestCheckBites(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full workload")
	}
	w, err := workloadByName("collusion-dumbbell")
	if err != nil {
		t.Fatal(err)
	}
	r := runRep(w, defaultSeed, false)
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	pin, err := pinned(w.name)
	if err != nil || pin == nil {
		t.Fatalf("no pinned reference for %s: %v", w.name, err)
	}
	score := func(ref *outcome, got outcome) (failed int, err error) {
		g := &gate{ref: ref}
		err = g.observe(&got, nil)
		return g.failed, err
	}
	clone := func(o outcome) outcome {
		o.Counters = maps.Clone(o.Counters)
		return o
	}

	if failed, err := score(&outcome{Digest: pin.Digest, Events: pin.Events, Counters: pin.Counters}, clone(r.outcome)); failed != 0 {
		t.Fatalf("the untampered run failed its pinned reference: %v", err)
	}

	tampered := clone(*pin)
	tampered.Digest = strings.Repeat("0", len(pin.Digest))
	if failed, err := score(&tampered, clone(r.outcome)); failed != 1 || err == nil {
		t.Errorf("tampered reference digest: failed=%d err=%v, want the run counted as failed", failed, err)
	}

	got := clone(r.outcome)
	for k := range got.Counters {
		got.Counters[k]++
		break
	}
	if failed, err := score(&outcome{Digest: pin.Digest, Events: pin.Events, Counters: pin.Counters}, got); failed != 1 || err == nil {
		t.Errorf("tampered counter snapshot: failed=%d err=%v, want the run counted as failed", failed, err)
	}

	got = clone(r.outcome)
	got.Events++
	if failed, err := score(&outcome{Digest: pin.Digest, Events: pin.Events, Counters: pin.Counters}, got); failed != 1 || err == nil {
		t.Errorf("tampered event count: failed=%d err=%v, want the run counted as failed", failed, err)
	}
}

// TestGateRepeatsFirstRun: every run must repeat the first exactly,
// with or without a reference.
func TestGateRepeatsFirstRun(t *testing.T) {
	g := &gate{}
	first := outcome{Digest: "a", Events: 10, Counters: map[string]uint64{"x": 1}}
	if err := g.observe(&first, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.observe(&outcome{Digest: "a", Events: 11, Counters: map[string]uint64{"x": 1}}, nil); err == nil {
		t.Error("a run with a different event count passed")
	}
	if err := g.observe(&outcome{Digest: "a", Events: 10, Counters: map[string]uint64{"x": 1, "y": 2}}, nil); err == nil {
		t.Error("a run with an extra counter passed")
	}
	if g.attempted != 3 || g.failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2", g.attempted, g.failed)
	}
}

// TestGateTwinReference: a single-engine twin reference fails a sharded
// run whose Result differs, whatever its event count, and passes one
// whose Result matches although it executed more events.
func TestGateTwinReference(t *testing.T) {
	single := outcome{Digest: "a", Events: 10, Counters: map[string]uint64{"x": 1}}
	g := &gate{ref: twin(single)}
	if err := g.observe(&outcome{Digest: "a", Events: 12, Counters: map[string]uint64{"x": 1}}, nil); err != nil {
		t.Errorf("a sharded run with the single engine's Result failed: %v", err)
	}
	g = &gate{ref: twin(single)}
	if err := g.observe(&outcome{Digest: "b", Events: 10, Counters: map[string]uint64{"x": 1}}, nil); err == nil {
		t.Error("a sharded run diverging from its single-engine twin passed")
	}
	if err := g.observe(&outcome{Digest: "b", Events: 11, Counters: map[string]uint64{"x": 1}}, nil); err == nil {
		t.Error("a sharded run that does not repeat the first passed")
	}
	if g.attempted != 2 || g.failed != 2 {
		t.Errorf("attempted %d failed %d, want 2 and 2", g.attempted, g.failed)
	}
}
