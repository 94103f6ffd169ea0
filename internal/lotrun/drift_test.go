package lotrun_test

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/lotrun"
	"repro/internal/lotserver"
	"repro/internal/rig"
)

var (
	lnaOnce sync.Once
	lnaRig  *rig.Rig
	lnaErr  error
)

// getLNARig builds the rig lotserverd -quick serves: the circuit-level
// lna DUT at seed 1, whose gate distances are the heavy-tailed stream the
// watchdog defaults were measured on.
func getLNARig(t *testing.T) *rig.Rig {
	t.Helper()
	lnaOnce.Do(func() {
		lnaRig, lnaErr = rig.Build(rig.Params{
			DUT: "lna", Seed: 1, Produce: 128, Quick: true, FaultP: 0.10,
			Workers: runtime.GOMAXPROCS(0),
		}, nil)
	})
	if lnaErr != nil {
		t.Fatalf("lna rig: %v", lnaErr)
	}
	return lnaRig
}

// chartLots runs one fresh watchdog per lot over lot-shaped distance
// streams, the way the lot server runs one per lot, shifting every
// distance by shift. It returns the devices observed, the alarms raised
// and, per lot, the observation count at its first alarm (0 = none).
func chartLots(g *floor.Gate, cfg lotrun.WatchdogConfig, lots [][]float64, shift float64) (devices, alarms int, first []int) {
	for _, lot := range lots {
		w := lotrun.NewWatchdog(g, cfg)
		at := 0
		for j, d := range lot {
			if a := w.Observe(j, d+shift); a != nil {
				alarms++
				if at == 0 {
					at = j + 1
				}
			}
		}
		devices += len(lot)
		first = append(first, at)
	}
	return devices, alarms, first
}

// TestDriftWatchdogARLOnRigDistances is the watchdog's in-control
// property on real data: the accepted-capture gate distances of the lna
// rig's production pool, screened under several lot seeds, resampled into
// lot-shaped streams — 64- and 128-device lots, each either the pool
// prefix in order (how lotbench and lotserverd lots are drawn) or a
// random draw from the pool, each device one of its measured
// realizations. At the default config the in-control average run length
// (devices per false alarm) must be at least 20k, and shifting the same
// distances by one training sigma must alarm every lot within 64
// devices. The parent's chart — raw standardized distance at limits
// (3, 8) — fails the in-control half on the same streams, so the
// property is not vacuous.
func TestDriftWatchdogARLOnRigDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the lna rig")
	}
	r := getLNARig(t)
	const pool, realizations = 128, 6
	dist := make([][]float64, realizations) // dist[s][i] < 0: no clean capture
	for s := range dist {
		batch := make([]floor.BatchDevice, pool)
		for i := range batch {
			batch[i] = floor.BatchDevice{Index: i, Device: r.Lot[i], Seed: core.DeviceSeed(int64(1000+s), i)}
		}
		dist[s] = make([]float64, pool)
		for i, res := range r.Engine.ScreenBatch(context.Background(), batch, r.Faults) {
			dist[s][i] = res.CleanD
		}
	}

	rng := rand.New(rand.NewSource(17))
	var lots [][]float64
	for total := 0; total < 60000; {
		size := 64 << rng.Intn(2)
		order := rng.Perm(pool)[:size]
		if rng.Intn(2) == 0 {
			for i := range order {
				order[i] = i
			}
		}
		var lot []float64
		for _, i := range order {
			if d := dist[rng.Intn(realizations)][i]; d >= 0 {
				lot = append(lot, d)
			}
		}
		lots = append(lots, lot)
		total += len(lot)
	}

	const minARL0 = 20000
	devices, alarms, _ := chartLots(r.Gate, lotrun.WatchdogConfig{}, lots, 0)
	t.Logf("in control: %d devices in %d lots, %d false alarms", devices, len(lots), alarms)
	if alarms > 0 && devices/alarms < minARL0 {
		t.Fatalf("in-control ARL0 %d devices, want >= %d (%d alarms in %d devices)",
			devices/alarms, minARL0, alarms, devices)
	}

	_, shifted, first := chartLots(r.Gate, lotrun.WatchdogConfig{}, lots, r.Gate.TrainSigmaD)
	worst := 0
	for l, at := range first {
		if at == 0 || at > 64 {
			t.Fatalf("lot %d (%d devices): +1 sigma shift first alarmed at observation %d, want within 64",
				l, len(lots[l]), at)
		}
		worst = max(worst, at)
	}
	t.Logf("+1 sigma: %d alarms, every lot alarmed, slowest after %d devices", shifted, worst)

	raw := *r.Gate
	raw.TrainZ = nil
	rawDevices, rawAlarms, _ := chartLots(&raw, lotrun.WatchdogConfig{EWMALimit: 3, CUSUMLimit: 8}, lots, 0)
	t.Logf("raw z-chart at (3, 8): %d false alarms in %d devices", rawAlarms, rawDevices)
	if rawAlarms == 0 || rawDevices/rawAlarms >= minARL0 {
		t.Fatalf("the raw z-chart passes the in-control property too (%d alarms): the streams do not exercise the tail",
			rawAlarms)
	}
}

// TestDriftAlarmsDeterministic: the lot server feeds each lot's watchdog
// in device-index order, so a lot's alarms are a pure function of (lot
// seed, pool, model version) — identical to a serial replay of the
// reference lot's distances, at 1 or 4 local workers, at batch 1 or 16,
// and across a kill and journal resume that replays part of the lot.
func TestDriftAlarmsDeterministic(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 60)
	const seed = 41
	eng := f.engine()
	shifted := *f.gate
	// Two training sigmas: alarms fire at irregular points mid-lot, where
	// delivery order would move them.
	shifted.TrainMeanD -= 2 * f.gate.TrainSigmaD
	eng.Gate = &shifted
	cfg := lotrun.WatchdogConfig{MinSamples: 5}

	ref, err := eng.RunLot(seed, lot, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := lotrun.NewWatchdog(eng.Gate, cfg)
	var want []lotrun.DriftAlarm
	for _, res := range ref.Results {
		if res.CleanD < 0 {
			continue
		}
		if a := w.Observe(res.Index, res.CleanD); a != nil {
			want = append(want, *a)
		}
	}
	if len(want) < 2 {
		t.Fatalf("reference raised %d alarms; the shift must alarm more than once", len(want))
	}

	run := func(label string, workers, batch int, dir string, kill bool) {
		t.Helper()
		opt := oneLot(eng, lot, nil, workers)
		opt.Batch = batch
		opt.Watchdog = cfg
		opt.JournalDir = dir
		var res *lotserver.LotResult
		if kill {
			// One serial worker up to the kill, so the devices before it
			// are delivered, flushed to the journal and replayed on resume.
			ctx, cancel := context.WithCancel(context.Background())
			killOpt := opt
			killOpt.LocalWorkers, killOpt.Batch = 1, 1
			killOpt.Hook = func(_ string, device int) {
				if device == 37 {
					cancel()
				}
			}
			if _, err := serve(t, ctx, killOpt, spec(seed, lot)); err == nil {
				t.Fatalf("%s: interrupted lot reported success", label)
			}
			cancel()
			res = mustServe(t, opt, spec(seed, lot))
			if res.Replayed < 30 {
				t.Fatalf("%s: resume replayed %d devices, want the ~37 before the kill", label, res.Replayed)
			}
		} else {
			res = mustServe(t, opt, spec(seed, lot))
		}
		if !reflect.DeepEqual(res.Alarms, want) {
			t.Fatalf("%s: alarms %+v, want the index-order reference %+v", label, res.Alarms, want)
		}
	}
	run("1 worker, batch 1", 1, 1, "", false)
	run("4 workers, batch 1", 4, 1, "", false)
	run("4 workers, batch 16", 4, 16, "", false)
	run("1 worker, batch 16", 1, 16, "", false)
	run("kill and resume", 4, 16, t.TempDir(), true)
}
