package lotserver

// Acceptance tests for the versioned calibration lifecycle: stage →
// shadow (incumbent bins bit-identical to a no-shadow run) → canary
// (deterministic lot pinning) → promote, with automatic rollback on
// shadow divergence or canary drift, durable across kill-restart.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskfault"
	"repro/internal/floor"
	"repro/internal/lna"
	"repro/internal/lotrun"
	"repro/internal/modelreg"
	"repro/internal/netfloor"
)

// retrain fits a calibration on an independent training draw, optionally
// shifting the labelled specs — shift 0 is an honest retrain (close to
// the fixture calibration, different parameters), shift -40 a mangled one
// whose predictions are wrong by tens of dB.
func retrain(f *fixture, shift float64) (*core.Calibration, error) {
	rng := rand.New(rand.NewSource(31))
	train, err := core.GeneratePopulation(rng, f.model, 60, 0.9)
	if err != nil {
		return nil, err
	}
	td, err := core.AcquireTrainingSet(rng, f.cfg, f.stim, train,
		func(d *core.Device) lna.Specs { return d.Specs })
	if err != nil {
		return nil, err
	}
	for i := range td {
		td[i].Specs.GainDB += shift
		td[i].Specs.IIP3DBm += shift
	}
	return core.Calibrate(rng, f.stim, td, core.CalibrationOptions{})
}

var (
	altOnce, badOnce sync.Once
	altCal, badCal   *core.Calibration
	altErr, badErr   error
)

// altCalibration is a legitimately different but accurate candidate.
func altCalibration(t *testing.T, f *fixture) *core.Calibration {
	t.Helper()
	altOnce.Do(func() { altCal, altErr = retrain(f, 0) })
	if altErr != nil {
		t.Fatalf("alt calibration: %v", altErr)
	}
	return altCal
}

// badCalibration is a divergent candidate: shadow scoring against the
// incumbent must disagree on most bins.
func badCalibration(t *testing.T, f *fixture) *core.Calibration {
	t.Helper()
	badOnce.Do(func() { badCal, badErr = retrain(f, -40) })
	if badErr != nil {
		t.Fatalf("bad calibration: %v", badErr)
	}
	return badCal
}

// looseBounds accepts any divergence once minSamples devices are scored —
// for tests promoting an honestly-different candidate.
func looseBounds(minSamples int) modelreg.Bounds {
	return modelreg.Bounds{MinSamples: minSamples, MaxDisagreeRate: 0.75, MaxResidualEWMA: 1e9}
}

// versionReference screens the lot serially under version v's artifact
// engine — the ground truth for any lot pinned to v.
func versionReference(t *testing.T, f *fixture, reg *modelreg.Registry, v int, pool []*core.Device, spec LotSpec, faults *floor.FaultModel) *floor.LotReport {
	t.Helper()
	art, ok := reg.Get(v)
	if !ok {
		t.Fatalf("version %d not in registry", v)
	}
	eng, err := art.Engine(f.engine())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RunLot(spec.Seed, pool[:spec.Devices], faults)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func runLotOn(t *testing.T, s *Server, spec LotSpec) *LotResult {
	t.Helper()
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit %s: %v", spec.ID, err)
	}
	res, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("lot %s: %v", spec.ID, err)
	}
	return res
}

// waitShadowScored polls until the shadow scorer has seen n devices.
func waitShadowScored(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if rs := s.RolloutStatus(); rs.Shadow != nil && rs.Shadow.Scored >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("shadow never scored %d devices: %+v", n, s.RolloutStatus())
}

// waitRolloutCleared polls until the registry's rollout record is gone —
// the observable end of an automatic rollback.
func waitRolloutCleared(t *testing.T, reg *modelreg.Registry) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Rollout() == nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("rollout never rolled back")
}

// pickLotID finds a lot ID whose deterministic canary pick matches want.
func pickLotID(t *testing.T, prefix string, fraction float64, want bool) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		id := fmt.Sprintf("%s%d", prefix, i)
		if canaryPick(id, fraction) == want {
			return id
		}
	}
	t.Fatalf("no %s lot ID with canary pick %v at fraction %g", prefix, want, fraction)
	return ""
}

// TestRolloutLifecycleBitIdentical is the headline acceptance: stage an
// honest retrain, shadow it on live traffic (incumbent bins untouched),
// promote to canary (deterministic lot pinning, versioned journals,
// remote sites fetching the artifact over the wire), then promote to
// ACTIVE — every lot bit-identical to a serial run of its pinned version.
func TestRolloutLifecycleBitIdentical(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	fm := newFarm(t, f, pool, nil, 2)
	reg, err := modelreg.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	opt := serverOpts(f, pool, nil)
	opt.Sites = fm.addrs
	opt.Dialer = fm.dialer(netfloor.FaultProfile{}, 0)
	opt.LocalWorkers = 1
	opt.JournalDir = t.TempDir()
	opt.MaxActiveLots = 2
	opt.Registry = reg
	opt.ShadowBounds = looseBounds(8)
	opt.CanaryFraction = 0.5
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	// Before any rollout: base model, bins identical to serial.
	base := LotSpec{ID: "pre", Seed: 99, Devices: 36}
	reportsEqual(t, "pre-rollout", runLotOn(t, s, base).Report, serialReference(t, f, pool, base, nil))
	if rs := s.RolloutStatus(); !rs.Enabled || rs.Active != 0 || rs.Stage != "" {
		t.Fatalf("idle rollout status: %+v", rs)
	}

	// Stage: inert until a rollout begins; no promotion without one.
	if err := s.Promote(); !errors.Is(err, ErrNoRollout) {
		t.Fatalf("promote with no rollout: %v", err)
	}
	v, err := s.StageCandidate(altCalibration(t, f), f.gate, "independent retrain")
	if err != nil || v != 1 {
		t.Fatalf("stage: v=%d err=%v", v, err)
	}
	art, _ := reg.Get(v)
	cand, err := art.Engine(f.engine())
	if err != nil {
		t.Fatal(err)
	}
	if cand.Fingerprint() == f.engine().Fingerprint() {
		t.Fatal("candidate hashes like the base model; the lifecycle test would prove nothing")
	}

	// Shadow: candidate scored on live commits, zero promotion evidence
	// refused, incumbent bins bit-identical to a no-shadow run.
	if err := s.BeginShadow(v); err != nil {
		t.Fatal(err)
	}
	if err := s.Promote(); err == nil {
		t.Fatal("promotion with zero shadow evidence must be refused")
	}
	shade := LotSpec{ID: "shade", Seed: 1234, Devices: 36}
	reportsEqual(t, "shadowed incumbent", runLotOn(t, s, shade).Report, serialReference(t, f, pool, shade, nil))
	waitShadowScored(t, s, 8)
	if err := s.Promote(); err != nil {
		t.Fatalf("shadow→canary: %v", err)
	}

	// Canary: pinning is a pure function of the lot ID, and each lot's
	// bins match a serial run of its own pinned version.
	canSpec := LotSpec{ID: pickLotID(t, "cy", 0.5, true), Seed: 7, Devices: 25}
	stSpec := LotSpec{ID: pickLotID(t, "st", 0.5, false), Seed: 8, Devices: 25}
	ch, err := s.Submit(context.Background(), canSpec)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := s.Submit(context.Background(), stSpec)
	if err != nil {
		t.Fatal(err)
	}
	canRes, err := ch.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stRes, err := sh.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "canary lot", canRes.Report, versionReference(t, f, reg, v, pool, canSpec, nil))
	reportsEqual(t, "stable lot", stRes.Report, serialReference(t, f, pool, stSpec, nil))
	for id, want := range map[string]int{canSpec.ID: v, stSpec.ID: 0} {
		hdr, _, _, _, err := lotrun.ReplayJournal(filepath.Join(opt.JournalDir, id+".journal"))
		if err != nil {
			t.Fatal(err)
		}
		if hdr.ModelVersion != want {
			t.Fatalf("lot %s journal pins v%d, want v%d", id, hdr.ModelVersion, want)
		}
	}

	// Promote to ACTIVE: every new lot pins the candidate.
	if err := s.Promote(); err != nil {
		t.Fatalf("canary→active: %v", err)
	}
	if reg.Active() != v {
		t.Fatalf("ACTIVE = v%d, want v%d", reg.Active(), v)
	}
	post := LotSpec{ID: "post", Seed: 42, Devices: 12}
	reportsEqual(t, "post-promotion", runLotOn(t, s, post).Report, versionReference(t, f, reg, v, pool, post, nil))
	rs := s.RolloutStatus()
	if rs.Active != v || rs.Stage != "" || rs.Candidate != 0 || rs.Rollbacks != 0 {
		t.Fatalf("post-promotion rollout status: %+v", rs)
	}
	// The remote sites fetched and screened under the candidate artifact.
	st := s.Status()
	if st.Rollout == nil || st.Rollout.Active != v {
		t.Fatalf("/statusz rollout section missing or wrong: %+v", st.Rollout)
	}
	fetched := false
	for _, site := range st.Sites {
		for _, m := range site.Models {
			if m == v {
				fetched = true
			}
		}
	}
	if !fetched {
		t.Fatalf("no site screened under v%d: %+v", v, st.Sites)
	}
}

// TestShadowDivergenceRollback: a divergent candidate in shadow is
// demoted automatically, with the divergence statistics recorded as
// evidence — and the incumbent's bins never budge, on a clean floor and
// under 10 % insertion faults alike.
func TestShadowDivergenceRollback(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	for _, faults := range []*floor.FaultModel{nil, floor.DefaultFaultModel(0.10)} {
		reg, err := modelreg.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opt := serverOpts(f, pool, faults)
		opt.LocalWorkers = 2
		opt.Registry = reg
		opt.ShadowBounds = modelreg.Bounds{MinSamples: 8} // tight default divergence gates
		s, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Kill)

		v, err := s.StageCandidate(badCalibration(t, f), f.gate, "mangled retrain")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.BeginShadow(v); err != nil {
			t.Fatal(err)
		}
		spec := LotSpec{ID: "victim", Seed: 99, Devices: 36}
		res := runLotOn(t, s, spec)
		reportsEqual(t, fmt.Sprintf("incumbent under diverging shadow (faults %v)", faults != nil),
			res.Report, serialReference(t, f, pool, spec, faults))

		waitRolloutCleared(t, reg)
		d, ok := reg.Demoted(v)
		if !ok {
			t.Fatalf("v%d was not demoted", v)
		}
		if !strings.Contains(d.Reason, "shadow divergence") {
			t.Fatalf("demotion reason %q does not name shadow divergence", d.Reason)
		}
		if d.Evidence == nil || d.Evidence.Scored < 8 || d.Evidence.Disagree == 0 {
			t.Fatalf("demotion evidence missing or empty: %+v", d.Evidence)
		}
		if rs := s.RolloutStatus(); rs.Rollbacks != 1 || rs.Stage != "" {
			t.Fatalf("post-rollback status: %+v", rs)
		}
		// A demoted version cannot be rolled out again by accident.
		if err := s.BeginShadow(v); err == nil || !strings.Contains(err.Error(), "demoted") {
			t.Fatalf("re-rollout of demoted version: %v", err)
		}
	}
}

// TestCanaryDriftRollback: a drift alarm on a lot pinned to the canary
// candidate is direct evidence against it — automatic rollback, while the
// canary lot itself still completes bit-identically under its pinned
// version.
func TestCanaryDriftRollback(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	reg, err := modelreg.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// The candidate screens identically to the base model, but its gate's
	// watchdog baseline sits 20 sigma below production distances — every
	// lot pinned to it alarms shortly after warm-up.
	drifted := *f.gate
	drifted.TrainMeanD -= 20 * f.gate.TrainSigmaD

	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 2
	opt.Registry = reg
	opt.ShadowBounds = looseBounds(4)
	opt.CanaryFraction = 1.0
	opt.Watchdog = lotrun.WatchdogConfig{MinSamples: 5}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	v, err := s.StageCandidate(f.cal, &drifted, "drifted-baseline candidate")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginShadow(v); err != nil {
		t.Fatal(err)
	}
	warm := LotSpec{ID: "warm", Seed: 99, Devices: 36}
	reportsEqual(t, "warm-up", runLotOn(t, s, warm).Report, serialReference(t, f, pool, warm, nil))
	waitShadowScored(t, s, 4)
	if err := s.Promote(); err != nil {
		t.Fatalf("shadow→canary: %v", err)
	}

	can := LotSpec{ID: "canape", Seed: 1234, Devices: 36}
	res := runLotOn(t, s, can)
	if len(res.Alarms) == 0 {
		t.Fatal("drifted watchdog baseline raised no alarm")
	}
	reportsEqual(t, "canary lot", res.Report, versionReference(t, f, reg, v, pool, can, nil))

	waitRolloutCleared(t, reg)
	d, ok := reg.Demoted(v)
	if !ok {
		t.Fatalf("v%d was not demoted after canary drift", v)
	}
	if !strings.Contains(d.Reason, "drift alarm") || !strings.Contains(d.Reason, can.ID) {
		t.Fatalf("demotion reason %q does not name the canary drift", d.Reason)
	}
	if rs := s.RolloutStatus(); rs.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", rs.Rollbacks)
	}
}

// TestDriftStagesRecalibratedCandidate: a drift alarm on a base-model lot
// with a Recalibrate hook stages a fresh candidate into the registry —
// off the hot path, no auto-rollout, the lot completes; without a
// registry the hook is simply skipped and screening continues.
func TestDriftStagesRecalibratedCandidate(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	reg, err := modelreg.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	driftedEngine := func() *floor.Engine {
		eng := f.engine()
		g := *f.gate
		g.TrainMeanD -= 20 * f.gate.TrainSigmaD
		eng.Gate = &g
		return eng
	}

	opt := serverOpts(f, pool, nil)
	opt.Engine = driftedEngine()
	opt.LocalWorkers = 2
	opt.Registry = reg
	opt.Watchdog = lotrun.WatchdogConfig{MinSamples: 5}
	opt.Recalibrate = func(lotID string, a lotrun.DriftAlarm) (*core.Calibration, *floor.Gate, error) {
		return f.cal, f.gate, nil // "retrain": hand back the healthy model
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	res := runLotOn(t, s, LotSpec{ID: "drifty", Seed: 31, Devices: 36})
	if len(res.Alarms) == 0 {
		t.Fatal("drifted baseline raised no alarm")
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if len(reg.Versions()) > 0 && s.RolloutStatus().Recalibrations > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(reg.Versions()) == 0 {
		t.Fatal("drift alarm staged no candidate")
	}
	if rs := s.RolloutStatus(); rs.Recalibrations == 0 {
		t.Fatalf("recalibration counter never moved: %+v", rs)
	}
	if reg.Rollout() != nil {
		t.Fatal("recalibration must stage a candidate, never start a rollout by itself")
	}
	if _, ok := reg.Get(reg.Versions()[0]); !ok {
		t.Fatal("staged candidate unreadable")
	}

	// No registry: the hook is skipped, screening never stops.
	opt2 := serverOpts(f, pool, nil)
	opt2.Engine = driftedEngine()
	opt2.LocalWorkers = 2
	opt2.Watchdog = lotrun.WatchdogConfig{MinSamples: 5}
	opt2.Recalibrate = opt.Recalibrate
	s2, err := New(opt2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	if res := runLotOn(t, s2, LotSpec{ID: "noreg", Seed: 31, Devices: 36}); len(res.Alarms) == 0 {
		t.Fatal("no-registry drift lot raised no alarm")
	}
}

// TestDriftRecalibratesOncePerIncumbent: a drifted incumbent raises an
// alarm every few devices on each of two concurrent lots, but gets one
// retrain and one staged candidate; later alarms are counted against
// that candidate (status and log), not retrained. Starting the
// candidate's rollout frees the slot.
func TestDriftRecalibratesOncePerIncumbent(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	reg, err := modelreg.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := f.engine()
	drifted := *f.gate
	drifted.TrainMeanD -= 20 * f.gate.TrainSigmaD
	eng.Gate = &drifted

	var recals atomic.Int64
	var mu sync.Mutex
	var logged []string
	opt := serverOpts(f, pool, nil)
	opt.Engine = eng
	opt.LocalWorkers = 2
	opt.Registry = reg
	opt.ShadowBounds = looseBounds(1 << 30)
	opt.Watchdog = lotrun.WatchdogConfig{MinSamples: 5}
	opt.Recalibrate = func(string, lotrun.DriftAlarm) (*core.Calibration, *floor.Gate, error) {
		recals.Add(1)
		return f.cal, f.gate, nil
	}
	opt.Logf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	waitRecals := func(n int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for s.RolloutStatus().Recalibrations < n {
			if time.Now().After(deadline) {
				t.Fatalf("recalibrations stuck at %d, want %d", s.RolloutStatus().Recalibrations, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Two drifted lots at once: their collectors race to respond.
	var handles []*LotHandle
	for i, id := range []string{"storm-1", "storm-2"} {
		h, err := s.Submit(context.Background(), LotSpec{ID: id, Seed: int64(31 + i), Devices: 36})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	alarms := 0
	for _, h := range handles {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		alarms += len(res.Alarms)
	}
	waitRecals(1)
	// A drifted lot admitted once the candidate is staged: each of its
	// alarms is counted against that candidate, however fast the storm
	// lots above finished relative to the retrain.
	alarms += len(runLotOn(t, s, LotSpec{ID: "storm-late", Seed: 34, Devices: 36}).Alarms)
	if alarms < 4 {
		t.Fatalf("20-sigma drift raised only %d alarms", alarms)
	}
	if n := recals.Load(); n != 1 {
		t.Fatalf("Recalibrate ran %d times for one incumbent, want 1", n)
	}
	versions := reg.Versions()
	if len(versions) != 1 {
		t.Fatalf("registry holds %d staged versions %v, want exactly 1", len(versions), versions)
	}
	rs := s.RolloutStatus()
	want := []DriftPending{{Incumbent: 0, Candidate: versions[0], Alarms: alarms - 1}}
	if rs.Recalibrations != 1 || !reflect.DeepEqual(rs.DriftPending, want) {
		t.Fatalf("rollout status: recalibrations %d, pending %+v; want 1, %+v",
			rs.Recalibrations, rs.DriftPending, want)
	}
	mu.Lock()
	counted := 0
	for _, line := range logged {
		if strings.Contains(line, fmt.Sprintf("counted against pending candidate v%d", versions[0])) {
			counted++
		}
	}
	mu.Unlock()
	if counted == 0 {
		t.Fatal("no log line counts an alarm against the pending candidate")
	}

	// Once the candidate enters a rollout the incumbent's next alarm may
	// stage a fresh one.
	if err := s.BeginShadow(versions[0]); err != nil {
		t.Fatal(err)
	}
	if rs := s.RolloutStatus(); len(rs.DriftPending) != 0 {
		t.Fatalf("pending after the candidate entered shadow: %+v", rs.DriftPending)
	}
	runLotOn(t, s, LotSpec{ID: "storm-3", Seed: 33, Devices: 36})
	waitRecals(2)
	if n, v := recals.Load(), len(reg.Versions()); n != 2 || v != 2 {
		t.Fatalf("after the rollout began: %d retrains, %d versions; want 2, 2", n, v)
	}
}

// TestRolloutKillRestartResume: kill the server mid-canary; a new server
// on the same registry and journal directories resumes the same rollout
// stage, the interrupted canary lot resumes under its journal-pinned
// version to bit-identical bins, and promotion survives a further
// restart.
func TestRolloutKillRestartResume(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	regDir := t.TempDir()
	reg1, err := modelreg.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}

	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 2
	opt.JournalDir = t.TempDir()
	opt.Registry = reg1
	opt.ShadowBounds = looseBounds(8)
	opt.CanaryFraction = 1.0
	opt.Hook = paceTester(5 * time.Millisecond)
	s1, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}

	v, err := s1.StageCandidate(altCalibration(t, f), f.gate, "retrain")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.BeginShadow(v); err != nil {
		t.Fatal(err)
	}
	runLotOn(t, s1, LotSpec{ID: "warm", Seed: 77, Devices: 36})
	waitShadowScored(t, s1, 8)
	if err := s1.Promote(); err != nil {
		t.Fatal(err)
	}
	can := LotSpec{ID: "kcan", Seed: 99, Devices: 36}
	if _, err := s1.Submit(context.Background(), can); err != nil {
		t.Fatal(err)
	}
	waitCommitted(t, s1, can.ID, 2)
	s1.Kill() // crash mid-canary: no drain, no checkpoint flush

	reg2, err := modelreg.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	opt.Registry = reg2
	s2, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if rs := s2.RolloutStatus(); rs.Stage != modelreg.StageCanary || rs.Candidate != v {
		t.Fatalf("rollout did not resume: %+v", rs)
	}
	hdr, _, _, _, err := lotrun.ReplayJournal(filepath.Join(opt.JournalDir, can.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.ModelVersion != v {
		t.Fatalf("canary journal pins v%d, want v%d", hdr.ModelVersion, v)
	}
	res := runLotOn(t, s2, can)
	if res.Replayed == 0 {
		t.Fatal("canary lot replayed nothing after the crash")
	}
	reportsEqual(t, "resumed canary", res.Report, versionReference(t, f, reg2, v, pool, can, nil))
	if err := s2.Promote(); err != nil {
		t.Fatalf("canary→active after restart: %v", err)
	}
	s2.Kill()

	reg3, err := modelreg.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	opt.Registry = reg3
	s3, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Kill()
	if rs := s3.RolloutStatus(); rs.Active != v || rs.Stage != "" {
		t.Fatalf("promotion did not survive restart: %+v", rs)
	}
	post := LotSpec{ID: "post", Seed: 42, Devices: 12}
	reportsEqual(t, "post-restart", runLotOn(t, s3, post).Report, versionReference(t, f, reg3, v, pool, post, nil))
}

// TestJournalUnknownModelVersionRejected: a journal pinned to a version
// the registry cannot rebuild is refused cleanly — typed, no panic — and
// the server keeps serving other lots.
func TestJournalUnknownModelVersionRejected(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 12)
	reg, err := modelreg.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 1
	opt.JournalDir = t.TempDir()
	opt.Registry = reg

	spec := LotSpec{ID: "poison", Seed: 5, Devices: 12}
	jr, err := lotrun.CreateJournalFS(diskfault.OS, filepath.Join(opt.JournalDir, spec.ID+".journal"), lotrun.JournalHeader{
		Type: "header", Version: lotrun.JournalVersion,
		LotSeed: spec.Seed, Devices: spec.Devices,
		ModelVersion: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()

	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	if _, err := s.Submit(context.Background(), spec); !errors.Is(err, lotrun.ErrModelMismatch) {
		t.Fatalf("version-99 journal: err=%v, want lotrun.ErrModelMismatch", err)
	}
	ok := LotSpec{ID: "fine", Seed: 3, Devices: 12}
	reportsEqual(t, "bystander", runLotOn(t, s, ok).Report, serialReference(t, f, pool, ok, nil))
}

// TestRolloutWireControls: the client-protocol rollout ops — status,
// shadow, promote, demote — against a live server over TCP loopback,
// including typed refusals for premature promotion and unknown ops.
func TestRolloutWireControls(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	reg, err := modelreg.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 2
	opt.Registry = reg
	opt.ShadowBounds = looseBounds(4)
	opt.HeartbeatInterval = 50 * time.Millisecond
	opt.IdleTimeout = 10 * time.Second
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	go s.ServeClients(ln)
	cli, err := Dial(ln.Addr().String(), ClientOptions{
		HeartbeatInterval: 50 * time.Millisecond,
		IdleTimeout:       10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	rs, err := cli.Rollout(ctx, "status", 0, "")
	if err != nil || !rs.Enabled || rs.Active != 0 {
		t.Fatalf("status: %+v, %v", rs, err)
	}
	var rej *RejectionError
	if _, err := cli.Rollout(ctx, "bogus", 0, ""); !errors.As(err, &rej) || rej.Code != CodeBadRequest {
		t.Fatalf("unknown op: %v", err)
	}
	if _, err := cli.Rollout(ctx, "shadow", 1, ""); !errors.As(err, &rej) {
		t.Fatalf("shadow of unstaged version: %v", err)
	}

	v, err := s.StageCandidate(altCalibration(t, f), f.gate, "wire test")
	if err != nil {
		t.Fatal(err)
	}
	rs, err = cli.Rollout(ctx, "shadow", v, "")
	if err != nil || rs.Candidate != v || rs.Stage != modelreg.StageShadow {
		t.Fatalf("begin shadow: %+v, %v", rs, err)
	}
	if _, err := cli.Rollout(ctx, "promote", 0, ""); !errors.As(err, &rej) {
		t.Fatalf("premature promote: %v", err)
	}

	if _, err := cli.Run(ctx, LotSpec{ID: "wlot", Seed: 3, Devices: 36}); err != nil {
		t.Fatal(err)
	}
	waitShadowScored(t, s, 4)
	rs, err = cli.Rollout(ctx, "promote", 0, "")
	if err != nil || rs.Stage != modelreg.StageCanary {
		t.Fatalf("promote to canary: %+v, %v", rs, err)
	}
	rs, err = cli.Rollout(ctx, "demote", 0, "operator says no")
	if err != nil || rs.Stage != "" {
		t.Fatalf("demote: %+v, %v", rs, err)
	}
	d, ok := reg.Demoted(v)
	if !ok || d.Reason != "operator says no" {
		t.Fatalf("demotion record: %+v, %v", d, ok)
	}
}
