// Batched screening kernel benchmark (`make bench`). The same seeded lot
// is screened through floor.Engine.ScreenBatch at increasing batch sizes;
// per-device wall time, devices/sec and the speedup over K=1 land in
// BENCH_batch.json. Bins are asserted identical to the serial
// ScreenDevice loop at every K — the speedup must come entirely from
// batching the envelope tail, the FFT and the prediction math, never from
// changing results.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/floor"
)

// benchBatchKs is the batch-size sweep: around the knee (the interleaved
// kernel tiles groups at 16 devices), plus 32/64 to show large batches no
// longer regress past the tile size.
var benchBatchKs = []int{4, 8, 16, 32, 64}

// pr8Baseline records the ns/device this fixture measured at PR 8 (the
// AoS batched kernel, before device interleaving) so the interleaved-vs-PR-8
// trajectory is visible in one file.
var pr8Baseline = map[string]float64{
	"k1_ns_per_device":  3522661,
	"k4_ns_per_device":  225168,
	"k16_ns_per_device": 227499,
	"k64_ns_per_device": 267374,
}

// BenchmarkScreenBatch sweeps the kernel batch size over one lot and
// writes the throughput table to BENCH_batch.json. The k=1 sub-benchmark
// is the serial ScreenDevice loop — exactly what the lot server's local
// workers and remote sites execute at batch size 1 — so the
// reported speedups are the real floor-throughput gain of raising the
// batch size. The JSON is only written when the whole sweep ran, so a
// filtered `-bench` invocation can never clobber the file with a partial
// table.
func BenchmarkScreenBatch(b *testing.B) {
	f := getLotBench(b)
	ctx := context.Background()

	serial := make([]floor.DeviceResult, len(f.lot))
	for i, d := range f.lot {
		serial[i] = f.engine.ScreenDevice(ctx, i, d, core.DeviceSeed(benchLotSeed, i), nil)
	}

	out := map[string]any{
		"devices":      benchLotDevices,
		"seed":         benchLotSeed,
		"pr8_baseline": pr8Baseline,
	}
	ran := 0
	var k1PerDev float64
	b.Run("k=1", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i, d := range f.lot {
				res := f.engine.ScreenDevice(ctx, i, d, core.DeviceSeed(benchLotSeed, i), nil)
				if res.Bin != serial[i].Bin {
					b.Fatalf("device %d binned %v vs %v on the reference pass", i, res.Bin, serial[i].Bin)
				}
			}
		}
		k1PerDev = float64(b.Elapsed().Nanoseconds()) / float64(b.N*benchLotDevices)
		b.ReportMetric(k1PerDev, "ns/device")
		b.ReportMetric(1e9/k1PerDev, "devices/sec")
		out["k1_ns_per_device"] = k1PerDev
		out["k1_devices_per_sec"] = 1e9 / k1PerDev
		ran++
	})
	for _, k := range benchBatchKs {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var batches [][]floor.BatchDevice
			for start := 0; start < len(f.lot); start += k {
				end := start + k
				if end > len(f.lot) {
					end = len(f.lot)
				}
				batch := make([]floor.BatchDevice, 0, end-start)
				for i := start; i < end; i++ {
					batch = append(batch, floor.BatchDevice{
						Index: i, Device: f.lot[i], Seed: core.DeviceSeed(benchLotSeed, i),
					})
				}
				batches = append(batches, batch)
			}
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for _, batch := range batches {
					for _, res := range f.engine.ScreenBatch(ctx, batch, nil) {
						if res.Bin != serial[res.Index].Bin {
							b.Fatalf("device %d binned %v at k=%d vs %v serially",
								res.Index, res.Bin, k, serial[res.Index].Bin)
						}
					}
				}
			}
			perDev := float64(b.Elapsed().Nanoseconds()) / float64(b.N*benchLotDevices)
			b.ReportMetric(perDev, "ns/device")
			b.ReportMetric(1e9/perDev, "devices/sec")
			out[fmt.Sprintf("k%d_ns_per_device", k)] = perDev
			out[fmt.Sprintf("k%d_devices_per_sec", k)] = 1e9 / perDev
			if k1PerDev > 0 {
				b.ReportMetric(k1PerDev/perDev, "speedup_vs_k1")
				out[fmt.Sprintf("k%d_speedup_vs_k1", k)] = k1PerDev / perDev
			}
			if base, ok := pr8Baseline[fmt.Sprintf("k%d_ns_per_device", k)]; ok {
				b.ReportMetric(base/perDev, "speedup_vs_pr8")
				out[fmt.Sprintf("k%d_speedup_vs_pr8", k)] = base / perDev
			}
			ran++
		})
	}

	if ran < 1+len(benchBatchKs) {
		return // filtered run: keep the checked-in full table intact
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_batch.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
