//go:build !race

package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/linalg"
	"repro/internal/wave"
)

// serialSignatureSensitivity is the reference A_s: one serial Acquire per
// perturbed device, Plus[j] then Minus[j].
func serialSignatureSensitivity(c *TestConfig, set *BehavioralSet, stim *wave.PWL) (*linalg.Matrix, error) {
	var as *linalg.Matrix
	for j := 0; j < set.K; j++ {
		sp, err := c.Acquire(set.Plus[j], stim, nil)
		if err != nil {
			return nil, err
		}
		sm, err := c.Acquire(set.Minus[j], stim, nil)
		if err != nil {
			return nil, err
		}
		if as == nil {
			as = linalg.NewMatrix(len(sp), set.K)
		}
		for i := range sp {
			as.Set(i, j, (sp[i]-sm[i])/(2*fdStep))
		}
	}
	return as, nil
}

// TestSignatureSensitivityBatched is the GA's speed gate and bit-identity
// check. SignatureSensitivity runs the 2k perturbed devices of a stimulus
// as one batch; over 6 random stimuli per device family its A_s must be
// Float64bits-equal to the serial Acquire loop, and on lna (the lotbench
// rig) the batched call must be at least 5× faster than the loop (best of
// 3 passes each, taken in one process so the ratio holds on any host).
// Excluded under -race, which distorts the ratio.
func TestSignatureSensitivityBatched(t *testing.T) {
	families := []struct {
		name  string
		model DeviceModel
		cfg   *TestConfig
		timed bool
	}{
		{"lna", NewLNAModel(), DefaultSimConfig(), true},
		{"rf2401", RF2401Model{}, DefaultHardwareConfig(), false},
	}
	for _, fam := range families {
		set, err := NewBehavioralSet(fam.model)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		stims := make([]*wave.PWL, 6)
		for i := range stims {
			stims[i] = fam.cfg.RandomStimulus(rng)
		}
		pass := func(sens func(*TestConfig, *BehavioralSet, *wave.PWL) (*linalg.Matrix, error)) []*linalg.Matrix {
			out := make([]*linalg.Matrix, len(stims))
			for i, stim := range stims {
				as, err := sens(fam.cfg, set, stim)
				if err != nil {
					t.Fatalf("%s stimulus %d: %v", fam.name, i, err)
				}
				out[i] = as
			}
			return out
		}
		want := pass(serialSignatureSensitivity)
		got := pass((*TestConfig).SignatureSensitivity)
		for i := range stims {
			if got[i].Rows != want[i].Rows || got[i].Cols != want[i].Cols {
				t.Fatalf("%s stimulus %d: A_s is %dx%d, serial %dx%d", fam.name, i,
					got[i].Rows, got[i].Cols, want[i].Rows, want[i].Cols)
			}
			for e := range want[i].Data {
				if math.Float64bits(got[i].Data[e]) != math.Float64bits(want[i].Data[e]) {
					t.Fatalf("%s stimulus %d entry %d: batched %v vs serial %v", fam.name, i, e, got[i].Data[e], want[i].Data[e])
				}
			}
		}
		if !fam.timed {
			continue
		}
		bestOf3 := func(sens func(*TestConfig, *BehavioralSet, *wave.PWL) (*linalg.Matrix, error)) time.Duration {
			best := time.Duration(1<<63 - 1)
			for r := 0; r < 3; r++ {
				start := time.Now()
				pass(sens)
				best = min(best, time.Since(start))
			}
			return best
		}
		serial := bestOf3(serialSignatureSensitivity)
		batched := bestOf3((*TestConfig).SignatureSensitivity)
		speedup := float64(serial) / float64(batched)
		t.Logf("%s: serial %v/stimulus, batched %v/stimulus, speedup %.1fx", fam.name,
			serial/time.Duration(len(stims)), batched/time.Duration(len(stims)), speedup)
		if speedup < 5 {
			t.Fatalf("%s: batched SignatureSensitivity is only %.1fx faster than the serial Acquire loop, want >= 5x", fam.name, speedup)
		}
	}
}
