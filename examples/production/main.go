// Production-line simulation: the economic argument of the paper's
// introduction, played out on a simulated test floor — including the parts
// the paper leaves out: real insertions are not all clean, real testers
// run many sites in parallel, and real lots get interrupted.
//
// A lot of circuit-level 900 MHz LNAs is screened two ways:
//
//  1. conventional specification testing (per-spec setup + measure on a
//     high-end RF ATE), and
//  2. signature testing on the low-cost tester (one capture, regression
//     read-out), run as the only lot of an in-process lot server
//     (internal/lotserver): four tester sites share the lot queue, a
//     seeded fault model injects
//     contactor/digitizer/LO/stimulus faults into the acquisition path, a
//     sanity gate screens each capture before prediction, gated-out
//     devices are retested with backoff, devices that never capture
//     cleanly fall back to the conventional spec test, per-site circuit
//     breakers quarantine misbehaving sites, and a drift watchdog charts
//     the accepted-capture distances.
//
// The served lot is journaled and deliberately cut off mid-lot (a
// simulated power cut), then resubmitted to a fresh server, which resumes
// it from the journal: the resumed lot's bins are bit-identical to an
// uninterrupted serial run, because every device's randomness derives
// from (lot seed, device index) alone.
//
// Finally the same lot is screened on the distributed floor: the lot
// server drives in-process netfloor sites over net.Pipe connections whose
// transport drops, duplicates and partitions messages — and the bins
// still come out identical, because delivery is at-least-once and commit
// is exactly-once.
//
//	go run ./examples/production [-n 60] [-faultp 0.10] [-sites 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ate"
	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/lna"
	"repro/internal/lotserver"
	"repro/internal/netfloor"
)

type limits struct {
	minGain, maxNF, minIIP3 float64
}

func (l limits) pass(s lna.Specs) bool {
	return s.GainDB >= l.minGain && s.NFDB <= l.maxNF && s.IIP3DBm >= l.minIIP3
}

func main() {
	n := flag.Int("n", 60, "production lot size")
	faultP := flag.Float64("faultp", 0.10, "total per-insertion fault probability")
	sites := flag.Int("sites", 4, "concurrent tester sites")
	flag.Parse()

	if *n < 1 {
		usageFail("-n %d is not a lot size; need an integer >= 1", *n)
	}
	if *faultP < 0 || *faultP > 1 {
		usageFail("-faultp %g is not a probability; need a value in [0, 1]", *faultP)
	}
	if *sites < 1 {
		usageFail("-sites %d is not a tester count; need an integer >= 1", *sites)
	}

	rng := rand.New(rand.NewSource(7))
	model := core.NewLNAModel()
	cfg := core.DefaultSimConfig()
	lim := limits{minGain: 14.6, maxNF: 2.65, minIIP3: 0.0}

	// One-time engineering: stimulus optimization + calibration (this is
	// the paper's "one-time effort preceding actual production test").
	fmt.Println("== engineering phase ==")
	opt, err := core.OptimizeStimulus(rng, model, cfg, core.OptimizerOptions{PopSize: 12, Generations: 3})
	if err != nil {
		log.Fatal(err)
	}
	train, err := core.GeneratePopulation(rng, model, 60, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	td, err := core.AcquireTrainingSet(rng, cfg, opt.Stimulus, train,
		func(d *core.Device) lna.Specs { return d.Specs })
	if err != nil {
		log.Fatal(err)
	}
	cal, err := core.Calibrate(rng, opt.Stimulus, td, core.CalibrationOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stimulus optimized (objective %.3g), calibration %v\n\n", opt.Objective.F, cal.Trainers)

	// Validate the calibration to learn the prediction error, then derive
	// guard-banded limits targeting a 0.1% per-spec escape probability.
	valPop, err := core.GeneratePopulation(rng, model, 25, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	valRep, err := core.Validate(rng, cfg, cal, opt.Stimulus, valPop)
	if err != nil {
		log.Fatal(err)
	}
	gb, err := core.GuardBand(valRep, []core.SpecLimit{
		{Name: "Gain", Value: lim.minGain, Upper: false},
		{Name: "NF", Value: lim.maxNF, Upper: true},
		{Name: "IIP3", Value: lim.minIIP3, Upper: false},
	}, 0.001)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("guard bands (z=%.2f): gain >= %.2f, NF <= %.2f, IIP3 >= %.2f\n",
		gb.Z, gb.Limits[0].Value, gb.Limits[1].Value, gb.Limits[2].Value)

	// The sanity gate is fit on the same signatures the regression was
	// trained on: anything it flags is outside the validated region.
	sigs := make([][]float64, len(td))
	for i := range td {
		sigs[i] = td[i].Signature
	}
	gate, err := floor.FitGate(sigs, floor.GateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sanity gate: %d-component reduced space, suspect/invalid distance %.2f/%.2f\n\n",
		gate.Components(), gate.SuspectD, gate.InvalidD)

	// Production phase. The same seeded lot and per-device fault streams
	// are screened twice: once trusting every capture blindly (serial),
	// once gated under the concurrent orchestrator.
	fmt.Printf("== production phase: %d devices, %.0f%% per-insertion fault probability, %d sites ==\n",
		*n, 100**faultP, *sites)
	lot, err := core.GeneratePopulation(rng, model, *n, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	faults := floor.DefaultFaultModel(*faultP)
	const lotSeed = 1001
	engine := &floor.Engine{
		Cfg:      cfg,
		Cal:      cal,
		Stim:     opt.Stimulus,
		PredPass: gb.Pass,
		TruePass: lim.pass,
		Policy:   floor.DefaultPolicy(),
	}
	ungated, err := engine.RunLot(lotSeed, lot, faults)
	if err != nil {
		log.Fatal(err)
	}
	engine.Gate = gate
	serial, err := engine.RunLot(lotSeed, lot, faults)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- ungated (every capture trusted), serial --")
	fmt.Print(ungated)
	fmt.Println("-- gated + retest + fallback, serial reference --")
	fmt.Print(serial)
	fmt.Println()

	// Kill-and-resume: serve the same gated lot with a crash-safe journal,
	// cut the power mid-lot, then resubmit it to a fresh server. The
	// journal replays every committed device; the rest are re-screened
	// from their (lot seed, index) streams.
	fmt.Println("== served lot with a simulated power cut ==")
	journalDir, err := os.MkdirTemp("", "production-journal-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(journalDir)
	spec := lotserver.LotSpec{ID: "production", Seed: lotSeed, Devices: *n}
	ctx, cut := context.WithCancel(context.Background())
	var started atomic.Int64
	killAt := int64(*n) / 2
	_, err = serveLot(ctx, lotserver.Options{
		Engine: engine, Pool: lot, Faults: faults,
		LocalWorkers: *sites, JournalDir: journalDir,
		// Small batches: once more than sites×Batch devices have reached
		// the hook, some site has delivered a whole batch, so the cut
		// lands mid-lot with progress in the journal.
		Batch: 4,
		Hook: func(lotID string, device int) {
			if started.Add(1) >= killAt {
				// The "power cut": the lot stops taking devices. Hook runs
				// on a worker, so it cancels the submission rather than
				// calling Kill, which waits for that worker, and holds
				// the worker's batch off the tester until the cut lands.
				cut()
				time.Sleep(50 * time.Millisecond)
			}
		},
	}, spec)
	if err != nil {
		fmt.Printf("power cut: %v\n", err)
	} else {
		fmt.Println("(lot too small to interrupt; completed before the cut)")
	}

	resumed, err := serveLot(context.Background(), lotserver.Options{
		Engine: engine, Pool: lot, Faults: faults,
		LocalWorkers: *sites, JournalDir: journalDir,
	}, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed: %d devices replayed from the journal, %d corrupt lines skipped\n",
		resumed.Replayed, resumed.Replay.Corrupt)
	fmt.Print(resumed.Report)
	fmt.Printf("resumed %d-site bins == uninterrupted serial bins: %v\n\n", *sites, sameBins(serial, resumed.Report))

	// Distributed floor: the same lot screened across networked tester
	// sites — here in-process over net.Pipe, with the transport injecting
	// drops, duplicates and a mid-lot partition. Exactly-once commit and
	// the per-device determinism keep the bins identical anyway.
	fmt.Printf("== distributed floor: %d remote sites over a faulty transport ==\n", *sites)
	netCtx, netStop := context.WithCancel(context.Background())
	defer netStop()
	var farmWG sync.WaitGroup
	farm := make(map[string]*netfloor.Site, *sites)
	remotes := make([]string, *sites)
	for s := range remotes {
		addr := fmt.Sprintf("pipe-%d", s)
		remotes[s] = addr
		farm[addr] = &netfloor.Site{
			Name: addr, Engine: engine, Lot: lot, Faults: faults,
			HeartbeatInterval: 20 * time.Millisecond,
		}
	}
	pipeDialer := func(ctx context.Context, addr string) (net.Conn, error) {
		site := farm[addr]
		cli, srv := net.Pipe()
		farmWG.Add(1)
		go func() {
			defer farmWG.Done()
			site.ServeConn(netCtx, srv)
		}()
		return cli, nil
	}
	prof := netfloor.FaultProfile{DropP: 0.02, DupP: 0.05, PartitionAfter: 40}
	netRes, err := serveLot(context.Background(), lotserver.Options{
		Engine: engine, Pool: lot, Faults: faults,
		Sites:             remotes,
		Dialer:            netfloor.FaultyDialer(pipeDialer, lotSeed, prof),
		RequestTimeout:    5 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		IdleTimeout:       200 * time.Millisecond,
		RetryBase:         10 * time.Millisecond,
		NetSeed:           lotSeed,
	}, spec)
	netStop()
	farmWG.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed floor: %d remote sites, %d assigns, %d duplicate results absorbed\n",
		*sites, netRes.Assigns, netRes.Dups)
	fmt.Printf("distributed bins == uninterrupted serial bins: %v\n\n", sameBins(serial, netRes.Report))

	// Floor economics, charged for the retest/fallback load the gated flow
	// actually incurred plus the orchestrator's journal-sync overhead.
	fmt.Println("== test floor economics (under fault load) ==")
	sigTester, err := ate.NewSignatureTester(cfg.Board.CaptureN, cfg.Board.DigitizerFs)
	if err != nil {
		log.Fatal(err)
	}
	cmp := resumed.Report.Time
	fmt.Printf("insertion time     : %.0f ms conventional vs %.1f ms signature (%.1fx)\n",
		cmp.ConventionalS*1e3, cmp.SignatureS*1e3, cmp.Speedup)
	fmt.Printf("throughput         : %.0f vs %.0f devices/hour\n",
		cmp.ThroughputConventional, cmp.ThroughputSignature)
	conv := ate.Economics{CapitalUSD: ate.HighEndRFATE.CapitalUSD, DepreciationYrs: 5, UtilizationPct: 0.8, OverheadPerHr: 50}
	low := ate.Economics{CapitalUSD: sigTester.CapitalUSD(), DepreciationYrs: 5, UtilizationPct: 0.8, OverheadPerHr: 50}
	factor, err := ate.CostReductionFactor(conv, low, cmp.ConventionalS, cmp.SignatureS)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cost per device    : %.0fx cheaper with the signature tester\n", factor)
}

// serveLot screens one lot on a fresh in-process lot server and stops the
// server once the lot ends. Cancelling ctx aborts the lot; its committed
// devices stay in the journal for a resubmission to resume.
func serveLot(ctx context.Context, opt lotserver.Options, spec lotserver.LotSpec) (*lotserver.LotResult, error) {
	s, err := lotserver.New(opt)
	if err != nil {
		return nil, err
	}
	defer s.Kill()
	h, err := s.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	return h.Wait(context.Background())
}

func sameBins(a, b *floor.LotReport) bool {
	for i := range a.Results {
		if a.Results[i].Bin != b.Results[i].Bin {
			return false
		}
	}
	return true
}

func usageFail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "production: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
