// Command sigtest runs the production signature-test flow end to end:
// stimulus optimization, calibration on a training lot, validation, and a
// simulated production run with pass/fail binning against data-sheet
// limits.
//
// Usage:
//
//	sigtest -dut lna                 # circuit-level LNA, paper scale
//	sigtest -dut rf2401 -produce 200 # behavioral front end, 200-device lot
//	sigtest -stimulus out.json       # also save the optimized stimulus
//	sigtest -faults -faultp 0.1      # fault-tolerant floor: inject faults,
//	                                 # gate captures, retest, fall back
//	sigtest -faults -sites 4         # four local tester sites
//	sigtest -faults -journal lot.journal           # crash-safe journal;
//	                                 # rerun the same command to resume
//	sigtest -faults -remote :7101,:7102            # distributed floor:
//	                                 # screen on networked sitetester
//	                                 # processes (same flags on each site)
//	sigtest -server :7200 -lot waferA -lotseed 99 -produce 120
//	                                 # thin client: submit a lot to a
//	                                 # running lotserverd and await bins
//	sigtest -server :7200 -rollout status          # calibration lifecycle
//	sigtest -server :7200 -rollout shadow -version 1
//	sigtest -server :7200 -rollout promote
//	sigtest -server :7200 -rollout demote -reason "bins shifted"
//
// -sites, -journal and -remote screen the lot as the only lot of
// an in-process lot server (internal/lotserver), the same run loop
// lotserverd serves; the plain -faults run is the serial reference.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"runtime/pprof"

	"repro/internal/lotrun"
	"repro/internal/lotserver"
	"repro/internal/rig"
)

func main() {
	dut := flag.String("dut", "lna", "device family: lna (circuit-level) or rf2401 (behavioral)")
	seed := flag.Int64("seed", 1, "random seed")
	train := flag.Int("train", 0, "training devices (default 100 lna / 28 rf2401)")
	produce := flag.Int("produce", 50, "production devices to test")
	stimOut := flag.String("stimulus", "", "write the optimized stimulus breakpoints as JSON")
	quick := flag.Bool("quick", false, "smaller GA budget")
	withFaults := flag.Bool("faults", false, "run production on the fault-tolerant floor engine")
	faultP := flag.Float64("faultp", 0.10, "total per-insertion fault probability (with -faults)")
	sites := flag.Int("sites", 1, "concurrent tester sites for the production lot (with -faults)")
	journal := flag.String("journal", "", "crash-safe lot journal path DIR/ID.journal (with -faults); rerunning with an existing journal resumes its lot")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for the off-line phase (GA fitness, training acquisition, cross-validation); results are identical for any value")
	remote := flag.String("remote", "", "comma-separated sitetester addresses: screen the lot on the distributed floor (with -faults); each site must run with the same -dut/-seed/-train/-produce/-quick/-faultp")
	server := flag.String("server", "", "lotserverd address: submit the lot as a thin client — no rig is built here; the server and its sites own the engine")
	lotID := flag.String("lot", "", "lot ID for -server submission (journaled under this name; resubmitting resumes it)")
	lotSeed := flag.Int64("lotseed", 0, "lot seed for -server submission (default -seed)")
	rollout := flag.String("rollout", "", "calibration-rollout control op for -server: status, shadow, promote or demote")
	version := flag.Int("version", 0, "staged calibration version for -rollout shadow")
	reason := flag.String("reason", "", "demotion note for -rollout demote")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")
	flag.Parse()

	if *faultP < 0 || *faultP > 1 {
		usageFail("-faultp %g is not a probability; need a value in [0, 1]", *faultP)
	}
	if *sites < 1 {
		usageFail("-sites %d is not a tester count; need an integer >= 1", *sites)
	}
	if *workers < 1 {
		usageFail("-workers %d is not a pool size; need an integer >= 1", *workers)
	}
	if *produce < 1 {
		usageFail("-produce %d is not a lot size; need an integer >= 1", *produce)
	}
	if (*sites > 1 || *journal != "" || *remote != "") && !*withFaults {
		usageFail("-sites/-journal/-remote orchestrate the fault-tolerant floor; add -faults")
	}
	var journalDir, journalID string
	if *journal != "" {
		var err error
		if journalDir, journalID, err = journalLot(*journal); err != nil {
			usageFail("%v", err)
		}
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fail("%v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fail("%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
			fmt.Printf("      cpu profile written to %s\n", *cpuprofile)
		}()
	}
	if *remote != "" && *sites > 1 {
		usageFail("-remote and -sites are different floors: remote screening has one site per address")
	}
	var remotes []string
	for _, a := range strings.Split(*remote, ",") {
		if a = strings.TrimSpace(a); a != "" {
			remotes = append(remotes, a)
		}
	}
	if *remote != "" && len(remotes) == 0 {
		usageFail("-remote %q names no addresses", *remote)
	}
	if *rollout != "" && *server == "" {
		usageFail("-rollout talks to a running lotserverd; add -server")
	}
	if *server != "" {
		if *withFaults || *remote != "" {
			usageFail("-server is a thin client; the server owns the floor (drop -faults/-remote)")
		}
		if *rollout != "" {
			runRolloutControl(*server, *rollout, *version, *reason)
			return
		}
		if *lotID == "" {
			usageFail("-server needs -lot: the lot ID names the journal and the resume key")
		}
		ls := *lotSeed
		if ls == 0 {
			ls = *seed
		}
		runServerClient(*server, *lotID, ls, *produce)
		return
	}

	r, err := rig.Build(rig.Params{
		DUT: *dut, Seed: *seed, Train: *train, Produce: *produce,
		Quick: *quick, FaultP: *faultP, Workers: *workers,
	}, logf)
	if err != nil {
		fail("%v", err)
	}
	if *stimOut != "" {
		data, err := json.MarshalIndent(map[string]any{
			"duration_s": r.Stim.Duration,
			"levels_v":   r.Stim.Levels,
		}, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*stimOut, data, 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("      stimulus written to %s\n", *stimOut)
	}
	fmt.Print(r.Validation)

	fmt.Printf("[4/4] production run: %d devices against limits...\n", *produce)
	if *withFaults {
		runFaultyFloor(r, *sites, journalDir, journalID, remotes)
		return
	}
	var pass, escape, overkill int
	for _, d := range r.Lot {
		sig, err := r.Cfg.Acquire(d.Behavioral, r.Stim, r.Rng)
		if err != nil {
			fail("%v", err)
		}
		pred := r.Cal.Predict(sig)
		predPass := r.Limits.Pass(pred)
		truePass := r.Limits.Pass(d.Specs)
		if predPass {
			pass++
		}
		if predPass && !truePass {
			escape++
		}
		if !predPass && truePass {
			overkill++
		}
	}
	fmt.Printf("      yield (signature test): %d/%d (%.1f%%)\n", pass, *produce, 100*float64(pass)/float64(*produce))
	fmt.Printf("      test escapes: %d, overkill: %d\n", escape, overkill)
	printLimits(r.Limits)
}

// runFaultyFloor screens the production lot on the fault-tolerant floor:
// seeded fault injection into the acquisition path, signature sanity
// gating, bounded retests with backoff, and fallback to the conventional
// spec test for devices that never capture cleanly. The plain run is the
// serial reference (Engine.RunLot); every other floor — local sites,
// remote sites, resumed — screens batches of floor.DefaultBatch devices
// per kernel call, with identical bins.
func runFaultyFloor(r *rig.Rig, sites int, journalDir, journalID string, remotes []string) {
	fmt.Printf("      fault-tolerant floor: %.0f%% per-insertion fault probability, gate with %d components\n",
		100*r.Params.FaultP, r.Gate.Components())
	if len(remotes) == 0 && sites == 1 && journalDir == "" {
		rep, err := r.Engine.RunLot(r.Params.Seed, r.Lot, r.Faults)
		if err != nil {
			fail("%v", err)
		}
		fmt.Print(rep)
	} else {
		runOneLot(r, sites, journalDir, journalID, remotes)
	}
	printLimits(r.Limits)
}

// runOneLot screens the production lot as the only lot of an in-process
// lot server: -sites local workers, or the -remote sitetester processes.
// With a journal, a rerun resumes the lot the same way lotserverd resumes
// a resubmitted lot ID; a journal from another seed or rig is refused.
// SIGINT/SIGTERM aborts the lot with its committed devices journaled.
func runOneLot(r *rig.Rig, sites int, journalDir, journalID string, remotes []string) {
	opt := lotserver.Options{
		Engine: r.Engine, Pool: r.Lot, Faults: r.Faults,
		JournalDir: journalDir, Sites: remotes, NetSeed: r.Params.Seed,
		Logf: logf,
	}
	if len(remotes) == 0 {
		opt.LocalWorkers = sites
	}
	if journalID == "" {
		journalID = "lot"
	}
	s, err := lotserver.New(opt)
	if err != nil {
		fail("%v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h, err := s.Submit(ctx, lotserver.LotSpec{ID: journalID, Seed: r.Params.Seed, Devices: len(r.Lot)})
	if err != nil {
		fail("%v", err)
	}
	res, err := h.Wait(context.Background())
	s.Kill()
	if err != nil {
		fail("%v", err)
	}
	fmt.Print(res.Report)
	if len(remotes) > 0 {
		local := 0
		for _, d := range res.Report.Results {
			if d.Site == len(remotes) {
				local++
			}
		}
		fmt.Printf("lot server: %d remote sites, %d assigns, %d duplicate results absorbed, %d devices screened locally\n",
			len(remotes), res.Assigns, res.Dups, local)
	} else {
		fmt.Printf("lot server: %d local sites\n", sites)
	}
	if res.Replayed > 0 {
		fmt.Printf("  %d devices replayed from journal (%d corrupt lines skipped)\n", res.Replayed, res.Replay.Corrupt)
	}
	if len(res.Trips) > 0 {
		fmt.Printf("  breaker trips: %d\n", len(res.Trips))
	}
	for _, a := range res.Alarms {
		fmt.Printf("  drift alarm (%s) at device %d: ewma %.2f, cusum %.2f over %d samples\n",
			a.Detector, a.Device, a.EWMA, a.CUSUM, a.Samples)
	}
	if res.JournalDegraded {
		fmt.Printf("  WARNING: journal degraded — lot ran journal-less, resume disabled (%s)\n", res.JournalErr)
	}
}

// journalLot splits a -journal path into the lot server's journal
// directory and the lot ID it names: DIR/ID.journal.
func journalLot(path string) (dir, id string, err error) {
	id, ok := strings.CutSuffix(filepath.Base(path), ".journal")
	if !ok {
		return "", "", fmt.Errorf("-journal %q: the file name must be ID.journal", path)
	}
	if err := lotserver.ValidLotID(id); err != nil {
		return "", "", fmt.Errorf("-journal %q: %v", path, err)
	}
	return filepath.Dir(path), id, nil
}

// runServerClient submits one lot to a running lotserverd and waits for
// its bins. SIGINT/SIGTERM cancels the submission (the server checkpoints
// the lot's journal; resubmitting the same -lot resumes it).
func runServerClient(addr, id string, lotSeed int64, devices int) {
	cli, err := lotserver.Dial(addr, lotserver.ClientOptions{})
	if err != nil {
		fail("%v", err)
	}
	defer cli.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("sigtest: submitting lot %q (seed=%d, %d devices) to %s\n", id, lotSeed, devices, addr)
	sum, err := cli.Run(ctx, lotserver.LotSpec{ID: id, Seed: lotSeed, Devices: devices})
	if err != nil && !errors.Is(err, lotrun.ErrJournalDegraded) {
		var rej *lotserver.RejectionError
		if errors.As(err, &rej) && rej.Code == lotserver.CodeSaturated {
			fail("server saturated (backpressure): retry later — nothing was admitted")
		}
		if ctx.Err() != nil {
			fail("cancelled: the server checkpoints lot %q; resubmit to resume", id)
		}
		fail("%v", err)
	}
	if err != nil {
		// Degraded journal-less completion: the bins below are complete
		// and correct, but the server could not keep this lot's journal —
		// a crash mid-lot would have re-screened it from scratch, and
		// resubmitting this lot ID will not resume.
		fmt.Printf("      WARNING: %v\n", err)
	}
	fmt.Printf("      lot %q done: %d devices, %d pass / %d fail (%d via fallback)\n",
		id, sum.Devices, sum.Pass, sum.Fail, sum.Fallback)
	fmt.Printf("      escapes: %d, overkill: %d", sum.Escapes, sum.Overkill)
	if sum.Replayed > 0 {
		fmt.Printf(", replayed from journal: %d", sum.Replayed)
	}
	if sum.Trips > 0 {
		fmt.Printf(", breaker trips: %d", sum.Trips)
	}
	if sum.Alarms > 0 {
		fmt.Printf(", drift alarms: %d", sum.Alarms)
	}
	fmt.Println()
}

// runRolloutControl issues one calibration-lifecycle op against a running
// lotserverd and renders the post-op rollout snapshot.
func runRolloutControl(addr, op string, version int, reason string) {
	switch op {
	case "status", "shadow", "promote", "demote":
	default:
		usageFail("-rollout %q: known ops are status, shadow, promote, demote", op)
	}
	if op == "shadow" && version <= 0 {
		usageFail("-rollout shadow needs -version: the staged calibration to roll out")
	}
	cli, err := lotserver.Dial(addr, lotserver.ClientOptions{})
	if err != nil {
		fail("%v", err)
	}
	defer cli.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rs, err := cli.Rollout(ctx, op, version, reason)
	if err != nil {
		fail("%v", err)
	}
	if !rs.Enabled {
		fail("server has no model registry (-registry on lotserverd)")
	}
	fmt.Printf("sigtest: rollout %s ok\n", op)
	fmt.Printf("      active: v%d (0 = base model), staged versions: %v\n", rs.Active, rs.Versions)
	if rs.Stage != "" {
		fmt.Printf("      candidate: v%d in %s", rs.Candidate, rs.Stage)
		if rs.Stage == "canary" {
			fmt.Printf(" (%.0f%% of new lots)", rs.CanaryFraction*100)
		}
		fmt.Println()
	}
	if rs.Shadow != nil {
		fmt.Printf("      shadow evidence: %d scored, %d disagree (rate %.4f), residual EWMA %.3f/%.3f/%.3f\n",
			rs.Shadow.Scored, rs.Shadow.Disagree, rs.Shadow.DisagreeRate,
			rs.Shadow.ResidualEWMA[0], rs.Shadow.ResidualEWMA[1], rs.Shadow.ResidualEWMA[2])
	}
	if len(rs.Demoted) > 0 {
		fmt.Printf("      demoted (cannot be re-rolled): %v\n", rs.Demoted)
	}
	if rs.Recalibrations > 0 || rs.Rollbacks > 0 {
		fmt.Printf("      drift recalibrations: %d, rollbacks: %d\n", rs.Recalibrations, rs.Rollbacks)
	}
	for _, p := range rs.DriftPending {
		fmt.Printf("      drift candidate v%d pending on v%d: %d later alarms counted against it\n",
			p.Candidate, p.Incumbent, p.Alarms)
	}
}

func printLimits(l rig.SpecLimits) {
	fmt.Printf("      limits: gain >= %.1f dB, NF <= %.1f dB, IIP3 >= %.1f dBm\n",
		l.MinGainDB, l.MaxNFDB, l.MinIIP3DBm)
}

func logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

func usageFail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sigtest: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sigtest: "+format+"\n", args...)
	os.Exit(1)
}
