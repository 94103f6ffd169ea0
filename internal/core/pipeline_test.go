package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lna"
)

func specsOfDevice(d *Device) lna.Specs { return d.Specs }

// The tentpole contract: the parallel training-set acquisition is
// bit-identical to the serial one at every worker count.
func TestAcquireTrainingSetSeededWorkerBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := DefaultSimConfig()
	stim := cfg.RandomStimulus(rng)
	pop, err := GeneratePopulation(rng, RF2401Model{}, 12, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := AcquireTrainingSetSeeded(55, cfg, stim, pop, specsOfDevice, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, 8} {
		got, err := AcquireTrainingSetSeeded(55, cfg, stim, pop, specsOfDevice, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			for j := range ref[i].Signature {
				if got[i].Signature[j] != ref[i].Signature[j] {
					t.Fatalf("workers=%d: device %d bin %d differs", w, i, j)
				}
			}
		}
	}
}

// A lot acquired in chunks (resume after an interruption) must equal a
// single-pass acquisition bit for bit.
func TestAcquireTrainingSetResumeBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	cfg := DefaultSimConfig()
	stim := cfg.RandomStimulus(rng)
	pop, err := GeneratePopulation(rng, RF2401Model{}, 10, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := AcquireTrainingSetSeeded(77, cfg, stim, pop, specsOfDevice, 2)
	if err != nil {
		t.Fatal(err)
	}
	head, err := AcquireTrainingSetAt(77, 0, cfg, stim, pop[:4], specsOfDevice, 1)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := AcquireTrainingSetAt(77, 4, cfg, stim, pop[4:], specsOfDevice, 4)
	if err != nil {
		t.Fatal(err)
	}
	resumed := append(head, tail...)
	for i := range whole {
		for j := range whole[i].Signature {
			if resumed[i].Signature[j] != whole[i].Signature[j] {
				t.Fatalf("resumed device %d bin %d differs from single pass", i, j)
			}
		}
	}
}

// Calibration (CV fold assignment, trainer selection, fitted models) must
// not depend on the CV worker count.
func TestCalibrateWorkerBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cfg := DefaultSimConfig()
	stim := cfg.RandomStimulus(rng)
	pop, err := GeneratePopulation(rng, RF2401Model{}, 24, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	td, err := AcquireTrainingSetSeeded(99, cfg, stim, pop, specsOfDevice, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Calibration {
		cal, err := Calibrate(rand.New(rand.NewSource(5)), stim, td, CalibrationOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return cal
	}
	ref := run(1)
	probe := td[3].Signature
	for _, w := range []int{4, 8} {
		got := run(w)
		for s := 0; s < 3; s++ {
			if got.CVRMS[s] != ref.CVRMS[s] {
				t.Fatalf("workers=%d: CV RMS for spec %d differs: %v vs %v", w, s, got.CVRMS[s], ref.CVRMS[s])
			}
			if got.Trainers[s] != ref.Trainers[s] {
				t.Fatalf("workers=%d: trainer for spec %d differs: %s vs %s", w, s, got.Trainers[s], ref.Trainers[s])
			}
			if got.Models[s].Predict(probe) != ref.Models[s].Predict(probe) {
				t.Fatalf("workers=%d: model %d predicts differently", w, s)
			}
		}
	}
}

// OptimizeStimulus must evolve a bit-identical stimulus for every worker
// count (the GA's draws are all per-slot streams; fitness is pure).
func TestOptimizeStimulusWorkerBitIdentity(t *testing.T) {
	run := func(workers int) *OptimizeResult {
		rng := rand.New(rand.NewSource(44))
		res, err := OptimizeStimulus(rng, RF2401Model{}, DefaultSimConfig(),
			OptimizerOptions{PopSize: 6, Generations: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, w := range []int{4} {
		got := run(w)
		for i := range ref.Stimulus.Levels {
			if got.Stimulus.Levels[i] != ref.Stimulus.Levels[i] {
				t.Fatalf("workers=%d: stimulus breakpoint %d differs", w, i)
			}
		}
		for i := range ref.Trace {
			if got.Trace[i] != ref.Trace[i] {
				t.Fatalf("workers=%d: GA trace[%d] differs: %g vs %g", w, i, got.Trace[i], ref.Trace[i])
			}
		}
	}
}

func TestDeviceSeedStableMix(t *testing.T) {
	// The crash-resume journal depends on DeviceSeed's exact values; pin
	// the SplitMix64 mix so a refactor cannot silently re-seed old
	// journals. The reference values are the pre-refactor outputs.
	z := uint64(0) + uint64(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	want := int64(z &^ (1 << 63))
	if got := DeviceSeed(0, 0); got != want {
		t.Fatalf("DeviceSeed(0,0) = %d, want %d", got, want)
	}
	if DeviceSeed(3, 5) < 0 || DeviceSeed(3, 5) == DeviceSeed(3, 6) {
		t.Fatal("device seeds must be non-negative and index-sensitive")
	}
}

// sameSignature fails unless a and b are Float64bits-equal.
func sameSignature(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s bin %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// TestBatchedAcquisitionBitIdentity: the training and validation
// acquisitions run through the batched kernel in windows, yet equal a
// serial Acquire loop bit for bit. With one shared rng the noise is drawn
// in the serial order and the stream ends where the serial loop leaves it;
// the seeded path matches a serial loop over DeviceSeed streams. 37
// devices span three windows, the last one partial.
func TestBatchedAcquisitionBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	cfg := DefaultSimConfig()
	stim := cfg.RandomStimulus(rng)
	pop, err := GeneratePopulation(rng, RF2401Model{}, 37, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	serialLoop := func(rngFor func(i int) *rand.Rand) [][]float64 {
		out := make([][]float64, len(pop))
		for i, d := range pop {
			sig, err := cfg.Acquire(d.Behavioral, stim, rngFor(i))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = sig
		}
		return out
	}

	refRng := rand.New(rand.NewSource(5))
	want := serialLoop(func(int) *rand.Rand { return refRng })
	gotRng := rand.New(rand.NewSource(5))
	td, err := AcquireTrainingSet(gotRng, cfg, stim, pop, specsOfDevice)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pop {
		sameSignature(t, fmt.Sprintf("shared-rng device %d", i), td[i].Signature, want[i])
	}
	if a, b := gotRng.Int63(), refRng.Int63(); a != b {
		t.Fatalf("shared rng left at a different stream position: next draw %d vs serial %d", a, b)
	}

	seeded := serialLoop(func(i int) *rand.Rand { return rand.New(rand.NewSource(DeviceSeed(66, i))) })
	tds, err := AcquireTrainingSetSeeded(66, cfg, stim, pop, specsOfDevice, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pop {
		sameSignature(t, fmt.Sprintf("seeded device %d", i), tds[i].Signature, seeded[i])
	}

	cal, err := Calibrate(rand.New(rand.NewSource(6)), stim, td, CalibrationOptions{Folds: 3})
	if err != nil {
		t.Fatal(err)
	}
	refRng = rand.New(rand.NewSource(7))
	want = serialLoop(func(int) *rand.Rand { return refRng })
	gotRng = rand.New(rand.NewSource(7))
	rep, err := Validate(gotRng, cfg, cal, stim, pop)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pop {
		pv := cal.Predict(want[i]).Vector()
		for s := 0; s < 3; s++ {
			if got := rep.Specs[s].Points[i].Predicted; math.Float64bits(got) != math.Float64bits(pv[s]) {
				t.Fatalf("validation device %d spec %d: %v vs serial %v", i, s, got, pv[s])
			}
		}
	}
	if a, b := gotRng.Int63(), refRng.Int63(); a != b {
		t.Fatalf("validation rng left at a different stream position: next draw %d vs serial %d", a, b)
	}
}
