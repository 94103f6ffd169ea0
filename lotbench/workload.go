package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"
)

// poolSize is the device pool every workload's server is built with; a
// lot screens a prefix of it.
const poolSize = 256

// maxLot is the largest lot any workload submits.
const maxLot = 128

// workload is one traffic mix: lot sizes and the open-loop offered rate.
type workload struct {
	name string
	// lotsPerS is the open-loop Poisson arrival rate, fixed at a fifth to
	// a third of the workload's saturation capacity (devices_per_s) on a
	// 2-core host. The speed of a shared 2-core host drifts by 15–25 %
	// between runs; at 60 % load that drift swings utilisation enough to
	// move lot latency by a third from run to run.
	lotsPerS float64
	// size maps a quantile u in [0, 1) to a lot size: the inverse of the
	// workload's lot-size distribution.
	size func(u float64) int
	// checkLots is how many completed lots the correctness check replays
	// from their journals against the serial reference.
	checkLots int
}

// steadyLot is lots_steady's lot size: four full 16-device batches. Half
// of maxLot, so that the open loop holds twice the lots, and its p95 the
// tail events, of 128-device lots at the same device rate.
func steadyLot(float64) int { return 64 }

// zipfCDF is the cumulative distribution of lot sizes 1..maxLot with
// P(size = s) ∝ s^-1.5: about 70 % of lots hold 1–4 devices, a few
// percent hold 64 or more.
var zipfCDF = func() []float64 {
	cdf := make([]float64, maxLot)
	sum := 0.0
	for s := 1; s <= maxLot; s++ {
		sum += math.Pow(float64(s), -1.5)
		cdf[s-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}()

func zipfLot(u float64) int {
	return sort.SearchFloat64s(zipfCDF, u) + 1
}

var workloads = []workload{
	{name: "lots_steady", lotsPerS: 24, size: steadyLot, checkLots: 4},
	{name: "lots_small_skewed", lotsPerS: 60, size: zipfLot, checkLots: 12},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// lotReq is one lot the load generator submits. due is its arrival time
// relative to the start of its phase (zero in a closed phase).
type lotReq struct {
	id      string
	seed    int64
	devices int
	due     time.Duration
}

// phaseRand is the random stream of one phase of one workload seed.
func phaseRand(w workload, seed int64, phase string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s", w.name, phase)
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// stratified returns n draws of inv, one from each of n equal-probability
// strata of [0, 1), in random order: every seed gets the same histogram
// to within one draw per stratum, and the seed decides the order.
func stratified(rng *rand.Rand, n int, inv func(u float64) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = inv((float64(i) + rng.Float64()) / float64(n))
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (w workload) sizes(rng *rand.Rand, n int) []float64 {
	return stratified(rng, n, func(u float64) float64 { return float64(w.size(u)) })
}

// stream returns an endless generator of lot requests for a closed phase.
// The lot sizes are the same for every seed (see arrivals); every lot gets
// its own seed, drawn from the workload seed, so no lot repeats another's
// (seed, index) pairs and no result cache is ever hit.
func stream(w workload, seed int64, phase string) func() lotReq {
	const block = 256
	shape, lots := phaseRand(w, 0, phase), phaseRand(w, seed, phase)
	var sizes []float64
	n := 0
	return func() lotReq {
		if len(sizes) == 0 {
			sizes = w.sizes(shape, block)
		}
		r := lotReq{id: fmt.Sprintf("%s-%d-%05d", phase, seed, n), seed: lots.Int63(), devices: int(sizes[0])}
		sizes = sizes[1:]
		n++
		return r
	}
}

// minOpenLots is the fewest lots an open-loop phase holds, so that its
// p95 latency has at least ten samples beyond it.
const minOpenLots = 210

// arrivals returns an open-loop schedule of Poisson arrivals at the
// workload's rate filling span, and at least min lots. The exponential
// gaps and the lot sizes are stratified draws in an order fixed per
// workload and phase: one Poisson realization that every seed offers, so
// that runs differ by the program and the machine rather than by how a
// seed happened to bunch arrivals. The seed draws each lot's seed, and
// with it every device's noise, faults and retests.
func arrivals(w workload, seed int64, phase string, span time.Duration, min int) []lotReq {
	n := int(math.Round(span.Seconds() * w.lotsPerS))
	if n < min {
		n = min
	}
	shape, lots := phaseRand(w, 0, phase), phaseRand(w, seed, phase)
	gaps := stratified(shape, n, func(u float64) float64 { return -math.Log1p(-u) / w.lotsPerS })
	sizes := w.sizes(shape, n)
	reqs := make([]lotReq, n)
	var due time.Duration
	for i := range reqs {
		due += time.Duration(gaps[i] * float64(time.Second))
		reqs[i] = lotReq{id: fmt.Sprintf("%s-%d-%05d", phase, seed, i), seed: lots.Int63(), devices: int(sizes[i]), due: due}
	}
	return reqs
}
