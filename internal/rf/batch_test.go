package rf

import (
	"math"
	"strings"
	"testing"
)

// genericDUT hides the concrete type so BatchRunner takes its generic
// EnvelopeDevice path.
type genericDUT struct{ a *Amplifier }

func (g genericDUT) ProcessEnvelope(in *EnvSignal, maxZone int) *EnvSignal {
	return g.a.ProcessEnvelope(in, maxZone)
}

func batchStim(amp float64) StimFunc {
	return func(t float64) float64 {
		return amp * (math.Sin(2*math.Pi*3.1e5*t) + 0.4*math.Cos(2*math.Pi*7.3e5*t+0.3))
	}
}

func sameCapture(t *testing.T, name string, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(ref))
	}
	for i := range ref {
		// == tolerates the one deviation the batch kernel allows itself:
		// signed zeros from skipped structurally-zero accumulations.
		if ref[i] != got[i] {
			t.Fatalf("%s: sample %d differs: batch %v (%x) vs reference %v (%x)",
				name, i, got[i], math.Float64bits(got[i]), ref[i], math.Float64bits(ref[i]))
		}
	}
}

// runOne is RunDevices over a one-device batch: the device takes the
// runner's serial tail. A recovered panic is re-raised.
func runOne(br *BatchRunner, dut EnvelopeDevice, flt *InsertionFaults) ([]float64, error) {
	devs := []DeviceRun{{DUT: dut, Flt: flt}}
	br.RunDevices(devs)
	if devs[0].Panic != nil {
		panic(devs[0].Panic)
	}
	return devs[0].Capture, devs[0].Err
}

func batchTestBoards() map[string]*Loadboard {
	small := DefaultLoadboard()
	small.CaptureN = 40
	small.SettleN = 8

	phased := DefaultLoadboard()
	phased.CaptureN = 40
	phased.SettleN = 8
	phased.PathPhase = 0.7

	zones2 := DefaultLoadboard()
	zones2.CaptureN = 40
	zones2.SettleN = 8
	zones2.MaxZone = 2

	ideal := DefaultLoadboard()
	ideal.CaptureN = 40
	ideal.SettleN = 8
	ideal.UpMixer = IdealMixer()
	ideal.DownMixer = IdealMixer() // sparse K: the cube path must self-disable

	return map[string]*Loadboard{"default": small, "phased": phased, "maxzone2": zones2, "ideal": ideal}
}

func batchTestDUTs() map[string]EnvelopeDevice {
	slope := NewAmplifier(PolyFromSpecs(15, -8))
	slope.CarrierSlope = complex(2e-9, 5e-10)

	quad := NewAmplifier(Poly{C: []float64{5.6, 0.8, -120}})

	linear := NewAmplifier(Poly{C: []float64{3.2}})

	chain := &Chain{Stages: []*Amplifier{
		NewAmplifier(PolyFromSpecs(12, -5)),
		NewAmplifier(PolyFromSpecs(6, 4)),
	}}
	chain.Stages[1].CarrierSlope = complex(1e-9, 0)

	return map[string]EnvelopeDevice{
		"amp-slope": slope,
		"amp-quad":  quad,
		"amp-lin":   linear,
		"chain":     chain,
		"generic":   genericDUT{a: NewAmplifier(PolyFromSpecs(15, -8))},
	}
}

func batchTestFaults(windowS float64) map[string]*InsertionFaults {
	return map[string]*InsertionFaults{
		"clean": nil,
		"contact-flicker": {ContactGain: func(t float64) float64 {
			if math.Sin(2*math.Pi*3/windowS*t+1.1) > 0 {
				return 0.4
			}
			return 1
		}},
		"contact-open": {ContactGain: func(float64) float64 { return 0 }},
		"lo-drift":     {LOAmpScale: 0.82, LOPhaseRad: 0.3},
		"capture-sat": {CaptureTransform: func(x []float64) []float64 {
			out := make([]float64, len(x))
			for i, v := range x {
				out[i] = math.Max(-0.01, math.Min(0.01, v))
			}
			return out
		}},
		"stim-glitch": {StimTransform: func(s StimFunc) StimFunc {
			return func(t float64) float64 { return s(t) + 0.01*math.Sin(2*math.Pi*1e6*t) }
		}},
	}
}

// TestBatchRunnerBitIdentity sweeps boards x DUTs x fault kinds and demands
// the batched capture equal the reference RunEnvelopeFaulted capture sample
// for sample.
func TestBatchRunnerBitIdentity(t *testing.T) {
	for bname, lb := range batchTestBoards() {
		stim := batchStim(0.18)
		br, err := NewBatchRunner(lb)
		if err != nil {
			t.Fatalf("%s: NewBatchRunner: %v", bname, err)
		}
		br.Prepare(stim)
		windowS := float64(lb.CaptureN) / lb.DigitizerFs
		for dname, dut := range batchTestDUTs() {
			for fname, flt := range batchTestFaults(windowS) {
				name := bname + "/" + dname + "/" + fname
				ref, err := lb.RunEnvelopeFaulted(dut, stim, flt)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				got, err := runOne(br, dut, flt)
				if err != nil {
					t.Fatalf("%s: batch: %v", name, err)
				}
				sameCapture(t, name, ref, got)
			}
		}
	}
}

// TestBatchRunnerInterleavedDevices re-runs devices in shuffled order through
// one runner: scratch reuse must not leak state between devices or faults.
func TestBatchRunnerInterleavedDevices(t *testing.T) {
	lb := batchTestBoards()["default"]
	stim := batchStim(0.18)
	br, err := NewBatchRunner(lb)
	if err != nil {
		t.Fatal(err)
	}
	br.Prepare(stim)
	windowS := float64(lb.CaptureN) / lb.DigitizerFs
	duts := batchTestDUTs()
	faults := batchTestFaults(windowS)
	order := []struct{ d, f string }{
		{"amp-quad", "clean"}, {"chain", "lo-drift"}, {"amp-quad", "contact-open"},
		{"generic", "clean"}, {"amp-slope", "contact-flicker"}, {"amp-quad", "clean"},
		{"chain", "clean"}, {"amp-lin", "capture-sat"}, {"amp-slope", "clean"},
	}
	for step, oc := range order {
		ref, err := lb.RunEnvelopeFaulted(duts[oc.d], stim, faults[oc.f])
		if err != nil {
			t.Fatalf("step %d reference: %v", step, err)
		}
		got, err := runOne(br, duts[oc.d], faults[oc.f])
		if err != nil {
			t.Fatalf("step %d batch: %v", step, err)
		}
		sameCapture(t, oc.d+"/"+oc.f+" (interleaved)", ref, got)
	}
}

// TestBatchRunnerCaptureContractPanic pins the CaptureN-contract panic of
// the batched path to the reference message.
func TestBatchRunnerCaptureContractPanic(t *testing.T) {
	lb := batchTestBoards()["default"]
	br, err := NewBatchRunner(lb)
	if err != nil {
		t.Fatal(err)
	}
	br.Prepare(batchStim(0.18))
	flt := &InsertionFaults{CaptureTransform: func(x []float64) []float64 { return x[:len(x)-3] }}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected CaptureN contract panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "CaptureN contract") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	runOne(br, NewAmplifier(PolyFromSpecs(15, -8)), flt)
}

// TestBatchRunnerRequiresPrepare checks the unprepared-runner error.
func TestBatchRunnerRequiresPrepare(t *testing.T) {
	br, err := NewBatchRunner(DefaultLoadboard())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOne(br, NewAmplifier(PolyFromSpecs(15, -8)), nil); err == nil {
		t.Fatal("expected error before Prepare")
	}
}
