package main

import (
	"sort"
	"time"
)

// calibrate measures a fixed host kernel — sorting 4096 pseudo-random
// integers — and returns its median ns per sort over several batches.
// It uses the standard library only and shares no code with the
// simulator, so no change to the program can move it: it normalizes
// reports taken on different hosts, and is never a gate metric.
func calibrate() float64 {
	const n = 4096
	src := make([]int, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src[i] = int(x >> 1)
	}
	buf := make([]int, n)
	var per []float64
	for b := 0; b < 9; b++ {
		const ops = 40
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			copy(buf, src)
			sort.Ints(buf)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/ops)
	}
	return median(per)
}
