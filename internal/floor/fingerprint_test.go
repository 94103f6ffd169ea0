package floor

import (
	"testing"
)

// TestFingerprintDiscriminates: the engine fingerprint must be stable for
// an identical rebuild (it is what lets a coordinator pair with a remote
// site) and must change whenever any screening-relevant knob changes (it
// is what makes the pairing refusal meaningful).
func TestFingerprintDiscriminates(t *testing.T) {
	f := getFixture(t)

	base := f.engine(true)
	if got, again := base.Fingerprint(), f.engine(true).Fingerprint(); got != again {
		t.Fatalf("identical engines fingerprint differently: %x vs %x", got, again)
	}

	mutations := map[string]func(*Engine){
		"retest policy": func(e *Engine) { e.Policy.MaxRetests += 3 },
		"handler time":  func(e *Engine) { e.Policy.HandlerS += 0.01 },
		"gate threshold": func(e *Engine) {
			g := *e.Gate
			g.SuspectD *= 1.01
			e.Gate = &g
		},
		"gate baseline": func(e *Engine) {
			g := *e.Gate
			g.TrainMeanD += 1e-6
			e.Gate = &g
		},
		"ungated": func(e *Engine) { e.Gate = nil },
	}
	seen := map[uint64]string{base.Fingerprint(): "base"}
	for name, mutate := range mutations {
		e := f.engine(true)
		mutate(e)
		fp := e.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%q collides with %q: %x", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestDriftBaselineOutsideFingerprint: TrainZ feeds only the drift
// watchdog, never a bin, so it stays out of the fingerprint — journals
// and registries written before it existed keep resuming.
func TestDriftBaselineOutsideFingerprint(t *testing.T) {
	f := getFixture(t)
	base := f.engine(true)
	want := base.Fingerprint()
	if len(base.Gate.TrainZ) == 0 {
		t.Fatal("fixture gate has no TrainZ")
	}
	for name, trainZ := range map[string][]float64{
		"nil":       nil,
		"shifted":   shiftedCopy(base.Gate.TrainZ, 1e-6),
		"truncated": base.Gate.TrainZ[:len(base.Gate.TrainZ)/2],
	} {
		e := f.engine(true)
		g := *e.Gate
		g.TrainZ = trainZ
		e.Gate = &g
		if got := e.Fingerprint(); got != want {
			t.Errorf("TrainZ %s: fingerprint %x, want %x", name, got, want)
		}
	}
}

func shiftedCopy(v []float64, by float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x + by
	}
	return out
}

// TestTotalPDeterministic: TotalP sums a map — the sum must not depend on
// Go's randomized map iteration order, because it is pinned in journal
// headers and the distributed Hello handshake, where the last float bit
// decides whether a resume or a site pairing is refused.
func TestTotalPDeterministic(t *testing.T) {
	m := &FaultModel{P: map[FaultKind]float64{
		FaultContactorOpen:       0.1,
		FaultBurstNoise:          0.2,
		FaultLODrift:             0.3,
		FaultSampleDropout:       0.07,
		FaultContactorResistive:  1e-17, // order-sensitive: vanishes unless added first
		FaultDigitizerSaturation: 0.013,
	}}
	want := m.TotalP()
	for i := 0; i < 200; i++ {
		if got := m.TotalP(); got != want {
			t.Fatalf("iteration %d: TotalP %x differs from %x — map-order dependent sum", i, got, want)
		}
	}
}
