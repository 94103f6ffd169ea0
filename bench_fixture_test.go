// Shared fixture of the floor benchmarks (BenchmarkServe,
// BenchmarkShadowScreen, BenchmarkScreenBatch): one seeded engineering
// phase and one seeded production lot, built once per process.
package repro

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/lna"
)

const (
	benchLotDevices = 64
	benchLotSeed    = 101
	benchLotFaultP  = 0.10
)

type lotBench struct {
	engine *floor.Engine
	lot    []*core.Device
	faults *floor.FaultModel
}

var (
	lotBenchOnce sync.Once
	lotBenchFix  *lotBench
	lotBenchErr  error
)

func getLotBench(b *testing.B) *lotBench {
	b.Helper()
	lotBenchOnce.Do(func() {
		rng := rand.New(rand.NewSource(11))
		model := core.RF2401Model{}
		cfg := core.DefaultSimConfig()
		stim := cfg.RandomStimulus(rng)
		train, err := core.GeneratePopulation(rng, model, 60, 0.9)
		if err != nil {
			lotBenchErr = err
			return
		}
		td, err := core.AcquireTrainingSet(rng, cfg, stim, train,
			func(d *core.Device) lna.Specs { return d.Specs })
		if err != nil {
			lotBenchErr = err
			return
		}
		cal, err := core.Calibrate(rng, stim, td, core.CalibrationOptions{})
		if err != nil {
			lotBenchErr = err
			return
		}
		sigs := make([][]float64, len(td))
		for i := range td {
			sigs[i] = td[i].Signature
		}
		gate, err := floor.FitGate(sigs, floor.GateOptions{})
		if err != nil {
			lotBenchErr = err
			return
		}
		pass := func(s lna.Specs) bool {
			return s.GainDB >= 10.0 && s.NFDB <= 4.2 && s.IIP3DBm >= -9.5
		}
		lot, err := core.GeneratePopulation(rng, model, benchLotDevices, 0.9)
		if err != nil {
			lotBenchErr = err
			return
		}
		lotBenchFix = &lotBench{
			engine: &floor.Engine{
				Cfg: cfg, Cal: cal, Stim: stim, Gate: gate,
				PredPass: pass, TruePass: pass, Policy: floor.DefaultPolicy(),
			},
			lot:    lot,
			faults: floor.DefaultFaultModel(benchLotFaultP),
		}
	})
	if lotBenchErr != nil {
		b.Fatalf("lot benchmark fixture: %v", lotBenchErr)
	}
	return lotBenchFix
}

func lotBins(rep *floor.LotReport) []floor.Bin {
	bins := make([]floor.Bin, len(rep.Results))
	for i, r := range rep.Results {
		bins[i] = r.Bin
	}
	return bins
}
