//go:build !race

package floor

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
)

// TestScreenBatchSpeedup is the batched kernel's performance gate, a
// ratio taken inside one process on one lot so it holds on any host: at
// K=DefaultBatch, ScreenBatch must screen a device at least 5× faster
// than the serial ScreenDevice loop (best of 3 passes each). The two
// paths are bit-identical (TestScreenBatchBitIdentity), so the only way
// to fail is an accidental fallback from the batched kernels to the
// per-device path. Excluded under -race, which distorts the ratio.
func TestScreenBatchSpeedup(t *testing.T) {
	f := getFixture(t)
	eng := f.engine(true)
	lot, err := core.GeneratePopulation(rand.New(rand.NewSource(83)), f.model, 4*DefaultBatch, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	const lotSeed = 515
	ctx := context.Background()
	batch := make([]BatchDevice, len(lot))
	for i, d := range lot {
		batch[i] = BatchDevice{Index: i, Device: d, Seed: core.DeviceSeed(lotSeed, i)}
	}

	bestOf3 := func(pass func()) time.Duration {
		pass() // warm the screener pool, FFT plans and caches
		best := time.Duration(1<<63 - 1)
		for r := 0; r < 3; r++ {
			start := time.Now()
			pass()
			best = min(best, time.Since(start))
		}
		return best
	}
	serial := bestOf3(func() {
		for _, bd := range batch {
			eng.ScreenDevice(ctx, bd.Index, bd.Device, bd.Seed, nil)
		}
	})
	batched := bestOf3(func() {
		for s := 0; s < len(batch); s += DefaultBatch {
			eng.ScreenBatch(ctx, batch[s:s+DefaultBatch], nil)
		}
	})
	speedup := float64(serial) / float64(batched)
	t.Logf("%d devices: serial %v/device, K=%d %v/device, speedup %.1fx",
		len(lot), serial/time.Duration(len(lot)), DefaultBatch, batched/time.Duration(len(lot)), speedup)
	if speedup < 5 {
		t.Fatalf("K=%d ScreenBatch is only %.1fx faster per device than serial ScreenDevice, want >= 5x", DefaultBatch, speedup)
	}
}
