package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lna"
	"repro/internal/rf"
)

func batchFixtureConfig() *TestConfig {
	cfg := DefaultSimConfig()
	cfg.Board.CaptureN = 48
	cfg.Board.SettleN = 8
	cfg.FeatureBins = 16
	return cfg
}

// captureOne is CaptureTimeBatch over a one-device batch: the device takes
// the runner's serial tail. A recovered panic is re-raised.
func captureOne(ba *BatchAcquirer, dut rf.EnvelopeDevice, rng *rand.Rand, flt *rf.InsertionFaults) ([]float64, error) {
	out := make([]BatchCapture, 1)
	ba.CaptureTimeBatch([]rf.EnvelopeDevice{dut}, []*rand.Rand{rng}, []*rf.InsertionFaults{flt}, out)
	if out[0].Panic != nil {
		panic(out[0].Panic)
	}
	return out[0].Rec, out[0].Err
}

// TestBatchAcquirerSignatureBitIdentity runs a small population through the
// batched acquisition (shared upconversion, batched FFT) and the serial
// AcquireWithFaults with identical per-device noise streams, and requires
// Float64bits-identical signatures, with and without insertion faults.
func TestBatchAcquirerSignatureBitIdentity(t *testing.T) {
	cfg := batchFixtureConfig()
	rng := rand.New(rand.NewSource(31))
	stim := cfg.RandomStimulus(rng)
	pop, err := GeneratePopulation(rng, RF2401Model{}, 9, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	windowS := cfg.StimulusDuration()
	faults := []*rf.InsertionFaults{
		nil, nil,
		{ContactGain: func(t float64) float64 {
			if math.Sin(2*math.Pi*2/windowS*t) > 0 {
				return 0.5
			}
			return 1
		}},
		nil,
		{LOAmpScale: 0.9, LOPhaseRad: 0.2},
		nil, nil,
		{StimTransform: func(s rf.StimFunc) rf.StimFunc {
			return func(t float64) float64 { return s(t) * 0.97 }
		}},
		nil,
	}

	ba, err := NewBatchAcquirer(cfg, stim)
	if err != nil {
		t.Fatal(err)
	}
	records := make([][]float64, len(pop))
	for i, d := range pop {
		rec, err := captureOne(ba, d.Behavioral, rand.New(rand.NewSource(DeviceSeed(7, i))), faults[i])
		if err != nil {
			t.Fatalf("device %d: CaptureTimeBatch: %v", i, err)
		}
		records[i] = rec
	}
	got := ba.Signatures(records)

	for i, d := range pop {
		want, err := cfg.AcquireWithFaults(d.Behavioral, stim, rand.New(rand.NewSource(DeviceSeed(7, i))), faults[i])
		if err != nil {
			t.Fatalf("device %d: serial acquire: %v", i, err)
		}
		if len(got[i]) != len(want) {
			t.Fatalf("device %d: signature length %d vs %d", i, len(got[i]), len(want))
		}
		for b := range want {
			if math.Float64bits(got[i][b]) != math.Float64bits(want[b]) {
				t.Fatalf("device %d bin %d: batch %v vs serial %v", i, b, got[i][b], want[b])
			}
		}
	}
}

// TestCalibrationPredictBatchBitIdentity calibrates on acquired signatures
// and checks the scratch and batched predict paths against Predict bit for
// bit for every spec.
func TestCalibrationPredictBatchBitIdentity(t *testing.T) {
	cfg := batchFixtureConfig()
	rng := rand.New(rand.NewSource(32))
	stim := cfg.RandomStimulus(rng)
	pop, err := GeneratePopulation(rng, RF2401Model{}, 14, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	training := make([]TrainingDevice, len(pop))
	for i, d := range pop {
		sig, err := cfg.Acquire(d.Behavioral, stim, rng)
		if err != nil {
			t.Fatal(err)
		}
		training[i] = TrainingDevice{Signature: sig, Specs: d.Specs}
	}
	cal, err := Calibrate(rng, stim, training, CalibrationOptions{Folds: 3})
	if err != nil {
		t.Fatal(err)
	}

	sigs := make([][]float64, len(training))
	for i := range training {
		sigs[i] = training[i].Signature
	}
	var s PredictScratch
	X := s.StackSignatures(sigs)
	got := make([]lna.Specs, len(sigs))
	cal.PredictBatch(X, got, &s)
	for i, sig := range sigs {
		want := cal.Predict(sig)
		scr := cal.PredictScratch(sig, &s)
		for _, pair := range [][2]float64{
			{got[i].GainDB, want.GainDB}, {got[i].NFDB, want.NFDB}, {got[i].IIP3DBm, want.IIP3DBm},
			{scr.GainDB, want.GainDB}, {scr.NFDB, want.NFDB}, {scr.IIP3DBm, want.IIP3DBm},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("device %d: predict mismatch %v vs %v", i, pair[0], pair[1])
			}
		}
	}
}

// TestCaptureTimeBatchBitIdentity drives the device-interleaved capture path
// against one-device CaptureTimeBatch calls (the serial tail) with identical
// seeds: records must
// match bit for bit across clean and faulted devices, a panicking fault hook
// must land in its own slot without touching neighbors, and repeated calls
// must be stable across the pooled scratch.
func TestCaptureTimeBatchBitIdentity(t *testing.T) {
	cfg := batchFixtureConfig()
	rng := rand.New(rand.NewSource(77))
	stim := cfg.RandomStimulus(rng)
	pop, err := GeneratePopulation(rng, RF2401Model{}, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	windowS := cfg.StimulusDuration()
	faults := []*rf.InsertionFaults{
		nil, nil,
		{ContactGain: func(t float64) float64 {
			if math.Sin(2*math.Pi*2/windowS*t) > 0 {
				return 0.5
			}
			return 1
		}},
		{CaptureTransform: func(x []float64) []float64 { return x[:len(x)-1] }}, // CaptureN contract panic
		{LOAmpScale: 0.9, LOPhaseRad: 0.2},
		nil,
		{StimTransform: func(s rf.StimFunc) rf.StimFunc {
			return func(t float64) float64 { return s(t) * 0.97 }
		}},
		nil,
	}

	ba, err := NewBatchAcquirer(cfg, stim)
	if err != nil {
		t.Fatal(err)
	}
	duts := make([]rf.EnvelopeDevice, len(pop))
	for i, d := range pop {
		duts[i] = d.Behavioral
	}
	for round := 0; round < 3; round++ {
		rngs := make([]*rand.Rand, len(pop))
		for i := range rngs {
			rngs[i] = rand.New(rand.NewSource(DeviceSeed(11, i)))
		}
		out := make([]BatchCapture, len(pop))
		ba.CaptureTimeBatch(duts, rngs, faults, out)
		for i := range pop {
			if i == 3 {
				if out[i].Panic == nil {
					t.Fatalf("round %d device 3: expected CaptureN contract panic", round)
				}
				continue
			}
			if out[i].Panic != nil {
				t.Fatalf("round %d device %d: unexpected panic: %v", round, i, out[i].Panic)
			}
			if out[i].Err != nil {
				t.Fatalf("round %d device %d: %v", round, i, out[i].Err)
			}
			want, err := captureOne(ba, duts[i], rand.New(rand.NewSource(DeviceSeed(11, i))), faults[i])
			if err != nil {
				t.Fatalf("round %d device %d: serial: %v", round, i, err)
			}
			if len(out[i].Rec) != len(want) {
				t.Fatalf("round %d device %d: length %d vs %d", round, i, len(out[i].Rec), len(want))
			}
			for s := range want {
				if math.Float64bits(out[i].Rec[s]) != math.Float64bits(want[s]) {
					t.Fatalf("round %d device %d sample %d: %v vs %v", round, i, s, out[i].Rec[s], want[s])
				}
			}
		}
	}
}
