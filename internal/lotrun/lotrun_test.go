package lotrun_test

// The lot-level behaviours of the supervision primitives, checked on the
// run loop that composes them: a one-lot lotserver.Server, the way
// sigtest -sites/-journal and examples/production screen a single lot.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ate"
	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/lna"
	"repro/internal/lotrun"
	"repro/internal/lotserver"
	"repro/internal/modelreg"
	"repro/internal/wave"
)

// fixture is the shared engineering phase (stimulus, calibration, gate),
// built once for the whole package.
type fixture struct {
	cfg   *core.TestConfig
	cal   *core.Calibration
	stim  *wave.PWL
	gate  *floor.Gate
	model core.DeviceModel
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		rng := rand.New(rand.NewSource(11))
		model := core.RF2401Model{}
		cfg := core.DefaultSimConfig()
		stim := cfg.RandomStimulus(rng)
		train, err := core.GeneratePopulation(rng, model, 60, 0.9)
		if err != nil {
			fixErr = err
			return
		}
		td, err := core.AcquireTrainingSet(rng, cfg, stim, train,
			func(d *core.Device) lna.Specs { return d.Specs })
		if err != nil {
			fixErr = err
			return
		}
		cal, err := core.Calibrate(rng, stim, td, core.CalibrationOptions{})
		if err != nil {
			fixErr = err
			return
		}
		sigs := make([][]float64, len(td))
		for i := range td {
			sigs[i] = td[i].Signature
		}
		gate, err := floor.FitGate(sigs, floor.GateOptions{})
		if err != nil {
			fixErr = err
			return
		}
		fix = &fixture{cfg: cfg, cal: cal, stim: stim, gate: gate, model: model}
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

func rf2401Pass(s lna.Specs) bool {
	return s.GainDB >= 10.0 && s.NFDB <= 4.2 && s.IIP3DBm >= -9.5
}

func (f *fixture) engine() *floor.Engine {
	return &floor.Engine{
		Cfg:      f.cfg,
		Cal:      f.cal,
		Stim:     f.stim,
		Gate:     f.gate,
		PredPass: rf2401Pass,
		TruePass: rf2401Pass,
		Policy:   floor.DefaultPolicy(),
	}
}

func testLot(t *testing.T, f *fixture, n int) []*core.Device {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	lot, err := core.GeneratePopulation(rng, f.model, n, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return lot
}

// breakAt returns a copy of the lot whose devices at idxs have no
// behavioral model: screening them panics inside the rf hot path.
func breakAt(lot []*core.Device, idxs ...int) []*core.Device {
	out := append([]*core.Device(nil), lot...)
	for _, i := range idxs {
		broken := *out[i]
		broken.Behavioral = nil
		out[i] = &broken
	}
	return out
}

// quietBreaker never trips, so lot economics carry no scheduling-dependent
// quarantine charge — used by the determinism tests.
func quietBreaker() lotrun.BreakerConfig { return lotrun.BreakerConfig{TripConsecutive: 1 << 20} }

// oneLot is the base server configuration for a single-lot floor: the lot
// is the server's whole device pool.
func oneLot(eng *floor.Engine, lot []*core.Device, faults *floor.FaultModel, workers int) lotserver.Options {
	return lotserver.Options{
		Engine: eng, Pool: lot, Faults: faults,
		LocalWorkers: workers, Breaker: quietBreaker(),
	}
}

func spec(seed int64, lot []*core.Device) lotserver.LotSpec {
	return lotserver.LotSpec{ID: "lot", Seed: seed, Devices: len(lot)}
}

// serve screens one lot on a fresh server and stops the server once the
// lot ends — a process that starts, runs its lot and exits. Cancelling
// ctx aborts the lot; its journal keeps the committed devices.
func serve(t *testing.T, ctx context.Context, opt lotserver.Options, sp lotserver.LotSpec) (*lotserver.LotResult, error) {
	t.Helper()
	s, err := lotserver.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	h, err := s.Submit(ctx, sp)
	if err != nil {
		return nil, err
	}
	return h.Wait(context.Background())
}

func mustServe(t *testing.T, opt lotserver.Options, sp lotserver.LotSpec) *lotserver.LotResult {
	t.Helper()
	res, err := serve(t, context.Background(), opt, sp)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// reportsEqual compares two lot reports modulo what legitimately depends
// on the floor: Site ordinals and the modeled journal/network/quarantine
// charges (with the Time comparison derived from them).
func reportsEqual(t *testing.T, label string, a, b *floor.LotReport) {
	t.Helper()
	strip := func(r *floor.LotReport) floor.LotReport {
		c := *r
		c.Results = append([]floor.DeviceResult(nil), r.Results...)
		for i := range c.Results {
			c.Results[i].Site = 0
		}
		c.Load.NetworkS, c.Load.QuarantineS, c.Load.JournalS = 0, 0, 0
		c.Time = ate.TimeComparison{}
		return c
	}
	ca, cb := strip(a), strip(b)
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("%s: lot reports diverge:\n%v\nvs\n%v", label, &ca, &cb)
	}
}

// TestSerialVsConcurrentByteIdentical is the reproducibility acceptance:
// screening the same seeded lot serially, serially again, and on 1 and 4
// concurrent sites yields byte-identical LotReports (modulo the Site tag),
// because every device's RNG stream derives from (lot seed, index) alone.
func TestSerialVsConcurrentByteIdentical(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 80)
	faults := floor.DefaultFaultModel(0.15)
	const seed = 99

	serial, err := f.engine().RunLot(seed, lot, faults)
	if err != nil {
		t.Fatal(err)
	}
	again, err := f.engine().RunLot(seed, lot, faults)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "serial rerun", serial, again)

	for _, sites := range []int{1, 4} {
		res := mustServe(t, oneLot(f.engine(), lot, faults, sites), spec(seed, lot))
		reportsEqual(t, fmt.Sprintf("%d-site server", sites), serial, res.Report)
	}
}

// TestBatchedOrchestratorByteIdentical extends the reproducibility
// acceptance to the batched kernel: screening the same seeded lot with
// batched sites (K devices per engine call) yields the same LotReport
// (modulo Site tags) as the serial engine, for every batch size and site
// count combination — batching amortizes compute, never semantics.
func TestBatchedOrchestratorByteIdentical(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 80)
	faults := floor.DefaultFaultModel(0.15)
	const seed = 99

	serial, err := f.engine().RunLot(seed, lot, faults)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct{ sites, batch int }{{1, 3}, {1, 16}, {2, 8}, {4, 64}} {
		opt := oneLot(f.engine(), lot, faults, cfg.sites)
		opt.Batch = cfg.batch
		res := mustServe(t, opt, spec(seed, lot))
		reportsEqual(t, fmt.Sprintf("%d-site batch-%d server", cfg.sites, cfg.batch), serial, res.Report)
	}
}

// TestKillAndResume is the crash-recovery acceptance: a lot cut off
// mid-run (its submission cancelled from inside a worker's hook — the
// journal only holds fsync'd committed records) and resubmitted to a
// fresh server on the same journal directory produces the same final
// LotReport as an uninterrupted run with the same seed.
func TestKillAndResume(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 60)
	faults := floor.DefaultFaultModel(0.15)
	const seed = 7

	refOpt := oneLot(f.engine(), lot, faults, 3)
	refOpt.JournalDir = t.TempDir()
	ref := mustServe(t, refOpt, spec(seed, lot))

	// Kill: cancel after 20 devices have started screening.
	opt := oneLot(f.engine(), lot, faults, 3)
	opt.JournalDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	// The killed run screens one device per kernel call and, once the
	// cancel is issued, holds every later device off the tester, so the
	// cancel lands mid-lot however fast the kernel screens; the resume
	// runs at the default batch size.
	killOpt := opt
	killOpt.Batch = 1
	killOpt.Hook = func(_ string, _ int) {
		if started.Add(1) >= 20 {
			cancel()
			time.Sleep(50 * time.Millisecond)
		}
	}
	if _, err := serve(t, ctx, killOpt, spec(seed, lot)); !errors.Is(err, lotserver.ErrAborted) {
		t.Fatalf("killed lot: err=%v, want ErrAborted", err)
	}

	// Resume on a fresh server (new process equivalent).
	res := mustServe(t, opt, spec(seed, lot))
	if res.Replayed == 0 || res.Replayed >= len(lot) {
		t.Fatalf("resume replayed %d of %d devices; want partial progress", res.Replayed, len(lot))
	}
	reportsEqual(t, "kill-and-resume", ref.Report, res.Report)

	// Idempotence: resuming the now-complete journal replays everything
	// and screens nothing.
	res2 := mustServe(t, opt, spec(seed, lot))
	if res2.Replayed != len(lot) {
		t.Fatalf("complete journal replayed %d of %d", res2.Replayed, len(lot))
	}
	reportsEqual(t, "resume of complete journal", ref.Report, res2.Report)
}

// TestResumeAfterJournalCorruption: end-to-end — run a lot to completion,
// corrupt the journal (garbage + torn tail), and resubmit: the corrupted
// records are re-screened and the final report matches the uncorrupted
// run exactly.
func TestResumeAfterJournalCorruption(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 30)
	faults := floor.DefaultFaultModel(0.12)
	const seed = 77

	opt := oneLot(f.engine(), lot, faults, 2)
	opt.JournalDir = t.TempDir()
	ref := mustServe(t, opt, spec(seed, lot))

	path := filepath.Join(opt.JournalDir, "lot.journal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail and scribble garbage over it.
	torn := append(append([]byte{}, data[:len(data)-25]...), []byte("\xde\xad{torn")...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	res := mustServe(t, opt, spec(seed, lot))
	if res.Replay.Corrupt == 0 {
		t.Fatal("corruption not detected")
	}
	if res.Replayed >= len(lot) {
		t.Fatalf("replayed %d of %d despite a torn tail", res.Replayed, len(lot))
	}
	if res.Report.Binned() != len(lot) {
		t.Fatalf("%d of %d binned after corrupted resume", res.Report.Binned(), len(lot))
	}
	reportsEqual(t, "resume after corruption", ref.Report, res.Report)
}

// TestResumeRejectsWrongLot: the journal header pins (seed, lot size,
// fault load); resubmitting anything else under the same lot ID must be
// refused.
func TestResumeRejectsWrongLot(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 8)
	opt := oneLot(f.engine(), lot, nil, 1)
	opt.JournalDir = t.TempDir()
	mustServe(t, opt, spec(42, lot))

	if _, err := serve(t, context.Background(), opt, spec(43, lot)); err == nil {
		t.Fatal("wrong seed must be refused")
	}
	if _, err := serve(t, context.Background(), opt, spec(42, lot[:6])); err == nil {
		t.Fatal("wrong lot size must be refused")
	}
	faulty := opt
	faulty.Faults = floor.DefaultFaultModel(0.1)
	if _, err := serve(t, context.Background(), faulty, spec(42, lot)); err == nil {
		t.Fatal("wrong fault load must be refused")
	}
}

// TestJournalModelVersionPinned: the journal header pins the lot to its
// calibration version; a server that cannot rebuild that version, or
// rebuilds it to a different engine, refuses the resume with the typed
// ErrModelMismatch (an upgrade problem, not a retryable one), and a
// server holding the right version completes the lot bit-identically.
func TestJournalModelVersionPinned(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 30)
	const seed = 41

	stageActive := func(gate *floor.Gate) (*modelreg.Registry, *floor.Engine) {
		reg, err := modelreg.Open("")
		if err != nil {
			t.Fatal(err)
		}
		art, err := modelreg.NewArtifact(f.engine(), f.cal, gate, "pinned")
		if err != nil {
			t.Fatal(err)
		}
		v, err := reg.Stage(art)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.SetActive(v); err != nil {
			t.Fatal(err)
		}
		eng, err := art.Engine(f.engine())
		if err != nil {
			t.Fatal(err)
		}
		return reg, eng
	}
	reg, pinned := stageActive(f.gate)
	ref, err := pinned.RunLot(seed, lot, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt the lot partway so there is something to resume.
	opt := oneLot(f.engine(), lot, nil, 2)
	opt.JournalDir = t.TempDir()
	opt.Registry = reg
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killOpt := opt
	killOpt.Batch = 1 // one device per kernel call, held once cancelled: the cancel lands mid-lot
	killOpt.Hook = func(_ string, device int) {
		if device >= 15 {
			cancel()
			time.Sleep(50 * time.Millisecond)
		}
	}
	if _, err := serve(t, ctx, killOpt, spec(seed, lot)); err == nil {
		t.Fatal("interrupted lot reported success")
	}

	noReg := opt
	noReg.Registry = nil
	if _, err := serve(t, context.Background(), noReg, spec(seed, lot)); !errors.Is(err, lotrun.ErrModelMismatch) {
		t.Fatalf("resume without the pinned version: err=%v, want ErrModelMismatch", err)
	}
	drifted := *f.gate
	drifted.TrainMeanD += f.gate.TrainSigmaD
	otherReg, _ := stageActive(&drifted)
	other := opt
	other.Registry = otherReg
	if _, err := serve(t, context.Background(), other, spec(seed, lot)); !errors.Is(err, lotrun.ErrModelMismatch) {
		t.Fatalf("resume under a differently calibrated version: err=%v, want ErrModelMismatch", err)
	}

	res := mustServe(t, opt, spec(seed, lot))
	if res.Replayed == 0 {
		t.Fatal("resume replayed nothing")
	}
	reportsEqual(t, "version-pinned resume", ref, res.Report)
}

// TestPanicCostsOneDevice: a panic inside one device's screening (a
// device with no behavioral model, dereferenced on the load board) is
// recovered into a fallback-binned device; the lot completes on four
// sites and no other device is affected.
func TestPanicCostsOneDevice(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 40)
	const seed = 5
	const victim = 17

	ref, err := f.engine().RunLot(seed, lot, nil)
	if err != nil {
		t.Fatal(err)
	}
	broken := breakAt(lot, victim)
	res := mustServe(t, oneLot(f.engine(), broken, nil, 4), spec(seed, broken))
	rep := res.Report
	if rep.Binned() != len(lot) {
		t.Fatalf("%d of %d devices binned after panic", rep.Binned(), len(lot))
	}
	got := rep.Results[victim]
	if got.Bin != floor.BinFallback || !strings.Contains(got.Err, "panic") {
		t.Fatalf("panicked device result: bin %v err %q; want fallback with structured panic", got.Bin, got.Err)
	}
	if rep.SupervisionErrs != 1 {
		t.Fatalf("supervision errors %d, want 1", rep.SupervisionErrs)
	}
	// Every other device matches the panic-free reference exactly.
	for _, r := range rep.Results {
		if r.Index == victim {
			continue
		}
		want := ref.Results[r.Index]
		r.Site = 0
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("device %d perturbed by device %d's panic:\n%+v\nvs\n%+v", r.Index, victim, r, want)
		}
	}
}

// TestBatchedPanicCostsOneDevice: a panic on one device inside a batched
// site's kernel call fallback-bins only that device; the rest of the
// batch screens normally.
func TestBatchedPanicCostsOneDevice(t *testing.T) {
	f := getFixture(t)
	const victim = 9
	lot := breakAt(testLot(t, f, 24), victim)
	opt := oneLot(f.engine(), lot, nil, 1)
	opt.Batch = 8
	res := mustServe(t, opt, spec(5, lot))
	for _, r := range res.Report.Results {
		if r.Index == victim {
			if r.Bin != floor.BinFallback || !strings.Contains(r.Err, "panic") {
				t.Fatalf("victim device: bin %v err %q, want fallback with the panic", r.Bin, r.Err)
			}
			continue
		}
		if r.Err != "" {
			t.Fatalf("device %d collateral error: %q", r.Index, r.Err)
		}
	}
}

// TestEnginePanicRecovery: a panic from inside the rf hot path (nil
// behavioral model dereferenced by the load board) is recovered by
// ScreenDevice itself, so even the serial floor never loses a lot.
func TestEnginePanicRecovery(t *testing.T) {
	f := getFixture(t)
	lot := breakAt(testLot(t, f, 10), 4)

	rep, err := f.engine().RunLot(3, lot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Binned() != len(lot) {
		t.Fatalf("%d of %d binned", rep.Binned(), len(lot))
	}
	res := rep.Results[4]
	if res.Bin != floor.BinFallback || !strings.Contains(res.Err, "panic") {
		t.Fatalf("rf-path panic not supervised: bin %v err %q", res.Bin, res.Err)
	}
	if rep.SupervisionErrs != 1 {
		t.Fatalf("supervision errors %d, want 1", rep.SupervisionErrs)
	}
}

// TestDeviceDeadline: an expired per-device deadline stops retesting after
// the first insertion and routes unresolved devices to fallback.
func TestDeviceDeadline(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 30)
	opt := oneLot(f.engine(), lot, floor.DefaultFaultModel(0.5), 2)
	opt.DeviceTimeout = time.Nanosecond
	rep := mustServe(t, opt, spec(12, lot)).Report
	if rep.Binned() != len(lot) {
		t.Fatalf("%d of %d binned", rep.Binned(), len(lot))
	}
	deadlined := 0
	for _, r := range rep.Results {
		if r.Insertions != 1 {
			t.Fatalf("device %d got %d insertions under a 1 ns deadline", r.Index, r.Insertions)
		}
		if strings.Contains(r.Err, "deadline") {
			deadlined++
			if r.Bin != floor.BinFallback {
				t.Fatalf("deadlined device %d binned %v", r.Index, r.Bin)
			}
		}
	}
	if deadlined == 0 {
		t.Fatal("50% fault load under a 1 ns deadline produced no deadline fallbacks")
	}
}

// TestBreakerQuarantinesFailingSite: with every insertion faulted to a
// contactor-open, sites trip, re-probe half-open, re-trip with growing
// backoff, and the quarantine time is charged to the lot economics.
func TestBreakerQuarantinesFailingSite(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 24)
	allOpen := &floor.FaultModel{P: map[floor.FaultKind]float64{floor.FaultContactorOpen: 1}}
	cfg := lotrun.BreakerConfig{TripConsecutive: 3, ProbeBackoffS: 2, BackoffFactor: 2, MaxBackoffS: 16}
	opt := oneLot(f.engine(), lot, allOpen, 2)
	opt.Breaker = cfg
	opt.Batch = 1 // every device is its own assignment, so each can be a probe
	res := mustServe(t, opt, spec(8, lot))
	if res.Report.Fallback != len(lot) {
		t.Fatalf("all-open lot binned %d fallbacks of %d", res.Report.Fallback, len(lot))
	}
	if len(res.Trips) < 2 {
		t.Fatalf("breakers tripped %d times on an all-failing floor", len(res.Trips))
	}
	if res.Report.Load.QuarantineS <= 0 {
		t.Fatal("quarantine time not charged to the lot economics")
	}
	grew := false
	for _, tr := range res.Trips {
		if tr.QuarantineS > cfg.ProbeBackoffS {
			grew = true
		}
		if tr.QuarantineS > cfg.MaxBackoffS {
			t.Fatalf("backoff %g exceeds cap %g", tr.QuarantineS, cfg.MaxBackoffS)
		}
	}
	if !grew {
		t.Fatal("failed half-open probes must grow the backoff")
	}
}

// TestBreakerHalfOpenRecoveryConcurrent: with every early device
// panicking on the tester, all four sites trip, fail their half-open
// probes on more early devices, and finally close when the healthy tail of
// the lot arrives. The lot must complete, the backoff growth must show
// failed probes happened, and every post-recovery device must match the
// panic-free reference bit for bit.
func TestBreakerHalfOpenRecoveryConcurrent(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 48)
	const seed = 17
	const victims = 24 // devices [0, victims) panic on the tester

	ref, err := f.engine().RunLot(seed, lot, nil)
	if err != nil {
		t.Fatal(err)
	}
	idxs := make([]int, victims)
	for i := range idxs {
		idxs[i] = i
	}
	broken := breakAt(lot, idxs...)

	cfg := lotrun.BreakerConfig{TripConsecutive: 2, ProbeBackoffS: 2, BackoffFactor: 2, MaxBackoffS: 16}
	opt := oneLot(f.engine(), broken, nil, 4)
	opt.Breaker = cfg
	opt.Batch = 1 // every device is its own assignment, so each can be a probe
	res := mustServe(t, opt, spec(seed, broken))
	if res.Report.Binned() != len(lot) {
		t.Fatalf("%d of %d binned after breaker recovery", res.Report.Binned(), len(lot))
	}
	if len(res.Trips) < 2 {
		t.Fatalf("%d trips across a 24-device failure run; want the breakers exercised", len(res.Trips))
	}
	grew := false
	for _, tr := range res.Trips {
		if tr.QuarantineS > cfg.ProbeBackoffS {
			grew = true
		}
	}
	if !grew {
		t.Fatal("no trip shows grown backoff: half-open probes never failed")
	}
	if res.Report.Load.QuarantineS <= 0 {
		t.Fatal("quarantine time not charged to the lot economics")
	}
	for _, r := range res.Report.Results {
		if r.Index < victims {
			if r.Bin != floor.BinFallback || !strings.Contains(r.Err, "panic") {
				t.Fatalf("victim %d: bin %v err %q", r.Index, r.Bin, r.Err)
			}
			continue
		}
		want := ref.Results[r.Index]
		r.Site = 0
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("post-recovery device %d diverges from the panic-free reference:\n%+v\nvs\n%+v",
				r.Index, r, want)
		}
	}
}

// driftedEngine is the fixture engine with its gate baseline shifted 20
// training sigmas below the production distances — a drifted process.
func driftedEngine(f *fixture) *floor.Engine {
	drifted := *f.gate
	drifted.TrainMeanD = f.gate.TrainMeanD - 20*f.gate.TrainSigmaD
	eng := f.engine()
	eng.Gate = &drifted
	return eng
}

// TestDriftAlarmTriggersRecalibration: a watchdog whose baseline is shifted
// far below the production distances raises an alarm after its warm-up,
// reports it through OnDrift and the lot result, and triggers the
// recalibration hook — while every device of the lot is still binned.
func TestDriftAlarmTriggersRecalibration(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 50)
	reg, err := modelreg.Open("")
	if err != nil {
		t.Fatal(err)
	}

	var onDrift, recal atomic.Int64
	opt := oneLot(driftedEngine(f), lot, nil, 2)
	opt.Watchdog = lotrun.WatchdogConfig{MinSamples: 5}
	opt.Registry = reg
	opt.OnDrift = func(string, lotrun.DriftAlarm) { onDrift.Add(1) }
	opt.Recalibrate = func(string, lotrun.DriftAlarm) (*core.Calibration, *floor.Gate, error) {
		recal.Add(1)
		// "Retrain": hand back the healthy baseline gate and map.
		return f.cal, f.gate, nil
	}
	res := mustServe(t, opt, spec(31, lot))
	if len(res.Alarms) == 0 {
		t.Fatal("20-sigma baseline shift raised no drift alarm")
	}
	if res.Alarms[0].Samples < 5 {
		t.Fatalf("alarm before warm-up: %+v", res.Alarms[0])
	}
	if onDrift.Load() == 0 || recal.Load() == 0 {
		t.Fatalf("alarm did not propagate: onDrift %d recalibrate %d", onDrift.Load(), recal.Load())
	}
	if res.Report.Binned() != len(lot) {
		t.Fatalf("%d of %d binned across the drift alarms", res.Report.Binned(), len(lot))
	}
}

// TestDriftRecalStagesCandidate: with a registry configured, a drift
// alarm's recalibration is enqueued as a staged candidate version and the
// running lot's engine is NEVER swapped — its bins stay bit-identical to
// a serial run of its pinned model.
func TestDriftRecalStagesCandidate(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 50)
	eng := driftedEngine(f)
	ref, err := eng.RunLot(31, lot, nil)
	if err != nil {
		t.Fatal(err)
	}

	reg, err := modelreg.Open("")
	if err != nil {
		t.Fatal(err)
	}
	opt := oneLot(eng, lot, nil, 2)
	opt.Watchdog = lotrun.WatchdogConfig{MinSamples: 5}
	opt.Registry = reg
	opt.Logf = t.Logf
	opt.Recalibrate = func(string, lotrun.DriftAlarm) (*core.Calibration, *floor.Gate, error) {
		return f.cal, f.gate, nil
	}
	res := mustServe(t, opt, spec(31, lot))
	versions := reg.Versions()
	if len(versions) == 0 {
		t.Fatalf("drift recalibration staged nothing (%d alarms)", len(res.Alarms))
	}
	art, ok := reg.Get(versions[0])
	if !ok || art.Note == "" {
		t.Fatalf("staged artifact missing or without provenance: %+v", art)
	}
	if reg.Active() != 0 {
		t.Fatal("staging a candidate must not activate it")
	}
	// The load-bearing half: no mid-lot swap happened.
	for i := range res.Report.Results {
		got := res.Report.Results[i]
		got.Site = 0
		if !reflect.DeepEqual(got, ref.Results[i]) {
			t.Fatalf("device %d diverges from the pinned-model reference: a drift alarm must not swap the engine mid-lot", i)
		}
	}
}

// TestDriftRecalStagingFailureContinues: a recalibration whose artifact
// cannot be staged is logged, and the lot continues without losing a
// device.
func TestDriftRecalStagingFailureContinues(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 40)
	reg, err := modelreg.Open("")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logged []string
	opt := oneLot(driftedEngine(f), lot, nil, 2)
	opt.Watchdog = lotrun.WatchdogConfig{MinSamples: 5}
	opt.Registry = reg
	opt.Logf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	opt.Recalibrate = func(string, lotrun.DriftAlarm) (*core.Calibration, *floor.Gate, error) {
		// A "retrain" that produces an unusable artifact (no models).
		return &core.Calibration{Stimulus: f.stim}, f.gate, nil
	}
	res := mustServe(t, opt, spec(33, lot))
	if res.Report.Binned() != len(lot) {
		t.Fatalf("%d of %d binned: staging failure must not cost devices", res.Report.Binned(), len(lot))
	}
	if got := reg.Versions(); len(got) != 0 {
		t.Fatalf("unusable artifact staged: %v", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, "staging recalibrated candidate failed") {
			return
		}
	}
	t.Fatalf("staging failure was not logged: %q", logged)
}
