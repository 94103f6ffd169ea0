package core

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/lna"
	"repro/internal/stat"
	"repro/internal/wave"
)

// ScatterPoint is one device on a paper-style correlation plot: the
// directly measured/simulated spec (x axis) against the signature-test
// prediction (y axis).
type ScatterPoint struct {
	Actual, Predicted float64
}

// SpecReport summarizes prediction quality for one specification —
// the numbers annotated on the paper's Figs. 8-10, 12-13.
type SpecReport struct {
	Name        string
	Points      []ScatterPoint
	RMSErr      float64
	StdErr      float64
	MaxErr      float64
	Correlation float64
}

// ValidationReport covers all three specs.
type ValidationReport struct {
	Specs [3]SpecReport
}

// Validate predicts every validation device from its signature and
// compares against the true specs. rng supplies fresh measurement noise
// per acquisition (each validation device is a new insertion), drawn in
// device order exactly as a serial Acquire loop would draw it; the
// acquisitions run through the batched kernel in windows of acquireBatch.
func Validate(rng *rand.Rand, cfg *TestConfig, cal *Calibration, stim *wave.PWL, devices []*Device) (*ValidationReport, error) {
	sigs, _, err := acquireWindows(1, cfg, stim, devices, sharedRng(rng, len(devices)))
	if err != nil {
		return nil, fmt.Errorf("core: validation acquisition: %w", err)
	}
	rep := &ValidationReport{}
	names := lna.SpecNames()
	actual := make([][]float64, 3)
	pred := make([][]float64, 3)
	for i, d := range devices {
		p := cal.Predict(sigs[i])
		av, pv := d.Specs.Vector(), p.Vector()
		for s := 0; s < 3; s++ {
			actual[s] = append(actual[s], av[s])
			pred[s] = append(pred[s], pv[s])
			rep.Specs[s].Points = append(rep.Specs[s].Points, ScatterPoint{Actual: av[s], Predicted: pv[s]})
		}
	}
	for s := 0; s < 3; s++ {
		rep.Specs[s].Name = names[s]
		rep.Specs[s].RMSErr = stat.RMSError(pred[s], actual[s])
		rep.Specs[s].StdErr = stat.StdError(pred[s], actual[s])
		rep.Specs[s].MaxErr = stat.MaxAbsError(pred[s], actual[s])
		rep.Specs[s].Correlation = stat.Correlation(pred[s], actual[s])
	}
	return rep, nil
}

// String renders the report as the paper-style summary table.
func (r *ValidationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %8s\n", "Spec", "RMS err", "std(err)", "max err", "corr")
	for _, s := range r.Specs {
		fmt.Fprintf(&b, "%-10s %10.4f %10.4f %10.4f %8.4f\n", s.Name, s.RMSErr, s.StdErr, s.MaxErr, s.Correlation)
	}
	return b.String()
}

// AcquireTrainingSet measures signatures (with fresh noise per device) for
// a population and pairs them with the given specs source. specsOf lets
// the caller choose between true simulated specs (simulation experiment)
// and noisy ATE characterization (hardware experiment); it runs after the
// acquisitions, in device order. The devices draw noise sequentially from
// one shared rng, in device order exactly as a serial Acquire loop would;
// the acquisitions run through the batched kernel in windows of
// acquireBatch. Use AcquireTrainingSetSeeded for the order-independent,
// parallel acquisition.
func AcquireTrainingSet(rng *rand.Rand, cfg *TestConfig, stim *wave.PWL, devices []*Device, specsOf func(*Device) lna.Specs) ([]TrainingDevice, error) {
	sigs, _, err := acquireWindows(1, cfg, stim, devices, sharedRng(rng, len(devices)))
	if err != nil {
		return nil, fmt.Errorf("core: training acquisition: %w", err)
	}
	return pairSpecs(sigs, devices, specsOf), nil
}

// AcquireTrainingSetSeeded measures the training set on a worker pool:
// device i's circuit sim -> RF envelope -> FFT signature has measurement
// noise from an RNG seeded with DeviceSeed(lotSeed, i), and windows of
// acquireBatch devices run through the batched kernel as independent
// tasks. Signatures depend only on (lotSeed, device), so serial
// (workers=1) and N-way-parallel acquisitions are bit-identical. workers
// <= 0 uses one worker per CPU.
func AcquireTrainingSetSeeded(lotSeed int64, cfg *TestConfig, stim *wave.PWL, devices []*Device, specsOf func(*Device) lna.Specs, workers int) ([]TrainingDevice, error) {
	return AcquireTrainingSetAt(lotSeed, 0, cfg, stim, devices, specsOf, workers)
}

// AcquireTrainingSetAt is AcquireTrainingSetSeeded for a window of a
// larger lot: device j of devices is seeded as lot index start+j. A lot
// acquired in chunks — e.g. resuming an interrupted acquisition — is
// therefore bit-identical to one acquired in a single pass.
func AcquireTrainingSetAt(lotSeed int64, start int, cfg *TestConfig, stim *wave.PWL, devices []*Device, specsOf func(*Device) lna.Specs, workers int) ([]TrainingDevice, error) {
	rngs := make([]*rand.Rand, len(devices))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(DeviceSeed(lotSeed, start+i)))
	}
	sigs, bad, err := acquireWindows(workers, cfg, stim, devices, rngs)
	if err != nil {
		return nil, fmt.Errorf("core: training acquisition %d: %w", start+bad, err)
	}
	return pairSpecs(sigs, devices, specsOf), nil
}

// sharedRng fills n acquisition slots with one noise stream.
func sharedRng(rng *rand.Rand, n int) []*rand.Rand {
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rng
	}
	return rngs
}

func pairSpecs(sigs [][]float64, devices []*Device, specsOf func(*Device) lna.Specs) []TrainingDevice {
	out := make([]TrainingDevice, len(devices))
	for i, d := range devices {
		out[i] = TrainingDevice{Signature: sigs[i], Specs: specsOf(d)}
	}
	return out
}
