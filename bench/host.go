package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// A shared VM's speed drifts by 10–20 % over minutes, as neighbours come
// and go, and every saturating workload drifts with it. hostClock times a
// fixed reference kernel, which uses nothing from the system under test,
// several times in each run. Set-up time and the closed loops' rates and
// latencies are scaled by the run's median kernel time to what they would
// read on a host where the kernel takes refNominalMs. The system's own
// cost moves the scaled values as much as the unscaled ones, which are
// printed as diagnostics.
type hostClock struct{ ms []float64 }

// refNominalMs is the reference kernel's time on a quiet 2-vCPU VM.
const refNominalMs = 6.0

// sample waits out any garbage collection the system left behind, so
// that neither competes with the kernel, then times the kernel n times.
func (h *hostClock) sample(n int) {
	runtime.GC()
	for i := 0; i < n; i++ {
		start := time.Now()
		refKernel()
		h.ms = append(h.ms, float64(time.Since(start))/1e6)
	}
}

// slowdown is the median kernel time over refNominalMs: a time measured
// in this run reads t/slowdown at nominal speed, and a rate r·slowdown.
func (h *hostClock) slowdown() float64 {
	if len(h.ms) == 0 {
		return 1
	}
	return median(append([]float64(nil), h.ms...)) / refNominalMs
}

var refSink float64

// refKernel is fixed work of the kinds the system does: generating and
// sorting floats, hashing into a map, and allocating both.
func refKernel() {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<15)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	m := make(map[int]int, 1<<12)
	for i := 0; i < 1<<15; i++ {
		m[rng.Intn(1<<13)] += i
	}
	refSink += xs[len(xs)/2] + float64(len(m))
}
