package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"sort"
)

// outcome is what a run produced, reduced to the parts that must repeat
// exactly: the Result JSON digest, the executed event count and the
// deterministic counter plane.
type outcome struct {
	Digest   string            `json:"digest"`
	Events   uint64            `json:"events,omitempty"`
	Counters map[string]uint64 `json:"counters"`
}

// defaultSeed is the seed whose references are pinned in reference.json.
const defaultSeed = 1

//go:embed reference.json
var pinnedJSON []byte

// pinned returns the pinned reference of a workload on the default seed,
// or nil when none is recorded.
func pinned(workload string) (*outcome, error) {
	var all map[string]outcome
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	o, ok := all[workload]
	if !ok {
		return nil, nil
	}
	return &o, nil
}

// reference returns the Result every run of (w, seed) must reproduce:
// the pinned one on the default seed; on other seeds, for a sharded
// workload, its single-engine twin, which is the byte-identity contract;
// otherwise nil.
func reference(ctx context.Context, w *workload, seed uint64) (*outcome, error) {
	if seed == defaultSeed {
		return pinned(w.name)
	}
	if !w.sharded {
		return nil, nil
	}
	r, err := spawnRep(ctx, w, seed, true)
	if err != nil {
		return nil, fmt.Errorf("single-engine reference: %w", err)
	}
	return twin(r.outcome), nil
}

// twin turns a single-engine outcome into the reference of its sharded
// workload. The event count is left out: each shard runs its own copy of
// the periodic ticks, so a sharded run executes more events than the
// single engine for the same Result.
func twin(o outcome) *outcome {
	o.Events = 0
	return &o
}

// digest is the SHA-256 of a Result's JSON encoding.
func digest(resultJSON []byte) string {
	sum := sha256.Sum256(resultJSON)
	return hex.EncodeToString(sum[:])
}

// check compares a run's outcome with want. A zero want.Events (a
// single-engine twin) is not compared.
func check(want, got *outcome) error {
	if got.Digest != want.Digest {
		return fmt.Errorf("result digest %.12s, want %.12s", got.Digest, want.Digest)
	}
	if want.Events != 0 && got.Events != want.Events {
		return fmt.Errorf("sim.events %d, want %d", got.Events, want.Events)
	}
	var diff []string
	for k := range want.Counters {
		if want.Counters[k] != got.Counters[k] {
			diff = append(diff, fmt.Sprintf("%s=%d want %d", k, got.Counters[k], want.Counters[k]))
		}
	}
	for k := range got.Counters {
		if _, ok := want.Counters[k]; !ok {
			diff = append(diff, fmt.Sprintf("%s=%d unexpected", k, got.Counters[k]))
		}
	}
	if len(diff) > 0 {
		sort.Strings(diff)
		return fmt.Errorf("deterministic counters differ: %v", diff)
	}
	return nil
}

// gate scores the runs of one (workload, seed); failed/attempted is the
// report's fail ratio. A run fails if it errs before producing output,
// differs from the reference, or does not repeat the first run exactly.
type gate struct {
	ref               *outcome
	first             *outcome
	attempted, failed int
}

// observe counts one run. err reports a failure before any output could
// be checked (a build error, a panic, a crashed child).
func (g *gate) observe(o *outcome, err error) error {
	g.attempted++
	if err == nil {
		if g.ref != nil {
			if rerr := check(g.ref, o); rerr != nil {
				err = fmt.Errorf("differs from the reference: %w", rerr)
			}
		}
		if g.first == nil {
			first := *o
			first.Counters = maps.Clone(o.Counters)
			g.first = &first
		} else if rerr := check(g.first, o); rerr != nil {
			err = errors.Join(err, fmt.Errorf("does not repeat the first run: %w", rerr))
		}
	}
	if err != nil {
		g.failed++
	}
	return err
}
