package lotserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ate"
	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/lna"
	"repro/internal/lotrun"
	"repro/internal/netfloor"
	"repro/internal/parallel"
	"repro/internal/wave"
)

// fixture is the shared engineering phase, the same recipe as lotrun's
// and netfloor's test fixtures — bit-identity claims span all three
// orchestrators.
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

func testPool(t *testing.T, f *fixture, n int) []*core.Device {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	pool, err := core.GeneratePopulation(rng, f.model, n, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func quietBreaker() lotrun.BreakerConfig { return lotrun.BreakerConfig{TripConsecutive: 1 << 20} }

// stripFloorDependent zeroes report content that legitimately depends on
// floor placement: Site ordinals and the modeled economics charges
// (network, quarantine, journal) plus the derived Time comparison.
// Everything else must be bit-identical to a serial single-lot run.
func stripFloorDependent(rep *floor.LotReport) {
	for i := range rep.Results {
		rep.Results[i].Site = 0
	}
	rep.Load.NetworkS = 0
	rep.Load.QuarantineS = 0
	rep.Load.JournalS = 0
	rep.Time = ate.TimeComparison{}
	// Journal degradation is a storage-fault outcome, not a binning one:
	// bins stay bit-identical whether or not the journal survived.
	rep.JournalDegraded = false
	rep.JournalErr = ""
}

func reportsEqual(t *testing.T, label string, a, b *floor.LotReport) {
	t.Helper()
	ca, cb := *a, *b
	ca.Results = append([]floor.DeviceResult(nil), a.Results...)
	cb.Results = append([]floor.DeviceResult(nil), b.Results...)
	stripFloorDependent(&ca)
	stripFloorDependent(&cb)
	if !reflect.DeepEqual(ca, cb) {
		t.Fatalf("%s: lot reports diverge:\n%v\nvs\n%v", label, ca, cb)
	}
}

// serialReference screens the lot on a fresh serial engine — the ground
// truth every server run must match bit for bit.
func serialReference(t *testing.T, f *fixture, pool []*core.Device, spec LotSpec, faults *floor.FaultModel) *floor.LotReport {
	t.Helper()
	rep, err := f.engine().RunLot(spec.Seed, pool[:spec.Devices], faults)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// farm is an in-process multi-lot site floor: persistent Sites serving
// the shared pool, reachable through a net.Pipe dialer with independent
// deterministic fault streams on both ends of every connection.
type farm struct {
	t      *testing.T
	ctx    context.Context
	cancel context.CancelFunc
	sites  map[string]*netfloor.Site
	addrs  []string

	mu    sync.Mutex
	conns int
	wg    sync.WaitGroup
}

func newFarm(t *testing.T, f *fixture, pool []*core.Device, faults *floor.FaultModel, n int) *farm {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	fm := &farm{t: t, ctx: ctx, cancel: cancel, sites: make(map[string]*netfloor.Site)}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("site%d", i)
		fm.addrs = append(fm.addrs, addr)
		fm.sites[addr] = &netfloor.Site{
			Name: addr, Engine: f.engine(), Lot: pool, Faults: faults,
			HeartbeatInterval: 10 * time.Millisecond,
		}
	}
	t.Cleanup(func() {
		cancel()
		fm.wg.Wait()
	})
	return fm
}

func (fm *farm) dialer(prof netfloor.FaultProfile, seed int64) netfloor.Dialer {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		site, ok := fm.sites[addr]
		if !ok {
			return nil, fmt.Errorf("farm: no site at %q", addr)
		}
		if fm.ctx.Err() != nil {
			return nil, fmt.Errorf("farm: shut down")
		}
		fm.mu.Lock()
		k := fm.conns
		fm.conns++
		fm.mu.Unlock()
		cli, srv := net.Pipe()
		var srvConn net.Conn = srv
		var cliConn net.Conn = cli
		if !prof.Zero() {
			srvConn = netfloor.NewFaultConn(srv, parallel.SubSeed(seed, 2*k+1), prof)
			cliConn = netfloor.NewFaultConn(cli, parallel.SubSeed(seed, 2*k), prof)
		}
		fm.wg.Add(1)
		go func() {
			defer fm.wg.Done()
			site.ServeConn(fm.ctx, srvConn)
		}()
		return cliConn, nil
	}
}

// serverOpts builds fast-timing Options for tests.
func serverOpts(f *fixture, pool []*core.Device, faults *floor.FaultModel) Options {
	return Options{
		Engine: f.engine(), Pool: pool, Faults: faults,
		HeartbeatInterval: 10 * time.Millisecond,
		IdleTimeout:       80 * time.Millisecond,
		RequestTimeout:    2 * time.Second,
		RetryBase:         5 * time.Millisecond,
		RetryMax:          50 * time.Millisecond,
		Breaker:           quietBreaker(),
	}
}

// paceTester makes every local screening take at least d per device, as
// a tester insertion does, so a kill, cancel or drain timed off Status
// lands mid-lot however fast the batched kernel screens.
func paceTester(d time.Duration) func(string, int) {
	return func(string, int) { time.Sleep(d) }
}

// waitCommitted polls until the lot has committed at least n devices. A
// lot that is neither active nor queued has ended; if it ended short of n
// the test fails at once instead of spinning out the deadline.
func waitCommitted(t *testing.T, s *Server, lotID string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Status()
		live := false
		for _, ls := range st.ActiveLots {
			if ls.ID == lotID {
				live = true
				if ls.Committed >= n {
					return
				}
			}
		}
		for _, ls := range st.QueuedLots {
			live = live || ls.ID == lotID
		}
		if !live {
			t.Fatalf("lot %s ended before committing %d devices", lotID, n)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("lot %s never reached %d committed devices", lotID, n)
}

// TestMultiLotBitIdentical is the tentpole acceptance: N=3 concurrent
// lots over a fault-injected transport, each bit-identical to a serial
// single-lot run of the same (seed, devices).
func TestMultiLotBitIdentical(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	faults := floor.DefaultFaultModel(0.10)
	fm := newFarm(t, f, pool, faults, 3)

	opt := serverOpts(f, pool, faults)
	opt.Sites = fm.addrs
	opt.Dialer = fm.dialer(netfloor.FaultProfile{DropP: 0.03, DupP: 0.05, DelayP: 0.10, DelayMax: 2 * time.Millisecond}, 7)
	opt.NetSeed = 7
	opt.LocalWorkers = 1
	opt.JournalDir = t.TempDir()
	opt.MaxActiveLots = 3

	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	specs := []LotSpec{
		{ID: "alpha", Seed: 99, Devices: 36},
		{ID: "beta", Seed: 1234, Devices: 25},
		{ID: "gamma", Seed: 42, Devices: 12},
	}
	handles := make([]*LotHandle, len(specs))
	for i, spec := range specs {
		h, err := s.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("submit %s: %v", spec.ID, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("lot %s: %v", specs[i].ID, err)
		}
		want := serialReference(t, f, pool, specs[i], faults)
		reportsEqual(t, specs[i].ID, res.Report, want)
	}
}

// TestAdmissionShed: an over-admission burst sheds with explicit
// backpressure errors — no deadlock, no lost accepted lot.
func TestAdmissionShed(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 12)
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 1
	opt.MaxActiveLots = 1
	opt.MaxQueuedLots = 1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	specs := []LotSpec{
		{ID: "a", Seed: 1, Devices: 12},
		{ID: "b", Seed: 2, Devices: 12},
		{ID: "c", Seed: 3, Devices: 12},
		{ID: "d", Seed: 4, Devices: 12},
	}
	var accepted []*LotHandle
	var acceptedSpecs []LotSpec
	shed := 0
	for _, spec := range specs {
		h, err := s.Submit(context.Background(), spec)
		switch {
		case err == nil:
			accepted = append(accepted, h)
			acceptedSpecs = append(acceptedSpecs, spec)
		case errors.Is(err, ErrSaturated):
			shed++
		default:
			t.Fatalf("submit %s: unexpected error %v", spec.ID, err)
		}
	}
	if len(accepted) < 2 || shed < 1 {
		t.Fatalf("accepted %d, shed %d; want >=2 accepted (active+queued) and >=1 shed", len(accepted), shed)
	}
	// Every accepted lot completes with correct bins — backpressure never
	// loses admitted work.
	for i, h := range accepted {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("accepted lot %s: %v", acceptedSpecs[i].ID, err)
		}
		want := serialReference(t, f, pool, acceptedSpecs[i], nil)
		reportsEqual(t, acceptedSpecs[i].ID, res.Report, want)
	}
	if st := s.Status(); st.ShedSaturated != shed {
		t.Fatalf("status ShedSaturated = %d, want %d", st.ShedSaturated, shed)
	}
}

func TestDuplicateLotID(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 24)
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	h, err := s.Submit(context.Background(), LotSpec{ID: "dup", Seed: 5, Devices: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), LotSpec{ID: "dup", Seed: 6, Devices: 10}); !errors.Is(err, ErrDuplicateLot) {
		t.Fatalf("duplicate submit error = %v, want ErrDuplicateLot", err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.RejectedDuplicate != 1 {
		t.Fatalf("status RejectedDuplicate = %d, want 1", st.RejectedDuplicate)
	}
}

func TestSubmitRejectsBadSpec(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 8)
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	bad := []LotSpec{
		{ID: "", Seed: 1, Devices: 4},
		{ID: "../evil", Seed: 1, Devices: 4},
		{ID: "has space", Seed: 1, Devices: 4},
		{ID: "ok", Seed: 1, Devices: 0},
		{ID: "ok", Seed: 1, Devices: len(pool) + 1},
	}
	for _, spec := range bad {
		if _, err := s.Submit(context.Background(), spec); err == nil {
			t.Fatalf("spec %+v was admitted", spec)
		}
	}
}

// TestClientCancelMidLot: cancelling the submitting context mid-run
// aborts only that lot, checkpoints its journal, and a resubmission
// resumes it to bins bit-identical to serial.
func TestClientCancelMidLot(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 1
	opt.JournalDir = t.TempDir()
	opt.MaxActiveLots = 2
	opt.Hook = paceTester(5 * time.Millisecond)
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	// A bystander lot that must be untouched by the cancel.
	bystander := LotSpec{ID: "bystander", Seed: 77, Devices: 10}
	bh, err := s.Submit(context.Background(), bystander)
	if err != nil {
		t.Fatal(err)
	}

	victim := LotSpec{ID: "victim", Seed: 99, Devices: 36}
	ctx, cancel := context.WithCancel(context.Background())
	vh, err := s.Submit(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	waitCommitted(t, s, victim.ID, 1)
	cancel()
	if _, err := vh.Wait(context.Background()); !errors.Is(err, ErrAborted) {
		t.Fatalf("cancelled lot Wait = %v, want ErrAborted", err)
	}

	// The bystander completes bit-identically.
	bres, err := bh.Wait(context.Background())
	if err != nil {
		t.Fatalf("bystander: %v", err)
	}
	reportsEqual(t, "bystander", bres.Report, serialReference(t, f, pool, bystander, nil))

	// Resubmitting the victim resumes from its journal and matches serial.
	vh2, err := s.Submit(context.Background(), victim)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	vres, err := vh2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vres.Replayed == 0 {
		t.Fatal("resumed lot replayed nothing; cancel did not checkpoint")
	}
	reportsEqual(t, "victim resumed", vres.Report, serialReference(t, f, pool, victim, nil))
}

// TestKillRestartResume is the crash acceptance: kill the server
// mid-traffic, restart on the same journal dir, resubmit every accepted
// lot — each resumes from its journal to identical final bins.
func TestKillRestartResume(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	faults := floor.DefaultFaultModel(0.10)
	dir := t.TempDir()

	specs := []LotSpec{
		{ID: "alpha", Seed: 99, Devices: 36},
		{ID: "beta", Seed: 1234, Devices: 30},
		{ID: "gamma", Seed: 42, Devices: 24},
	}

	opt := serverOpts(f, pool, faults)
	opt.LocalWorkers = 2
	opt.JournalDir = dir
	opt.MaxActiveLots = 3
	opt.Hook = paceTester(5 * time.Millisecond)
	s1, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if _, err := s1.Submit(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range specs {
		waitCommitted(t, s1, spec.ID, 2)
	}
	s1.Kill() // crash: no drain, no checkpoint flush

	s2, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	handles := make([]*LotHandle, len(specs))
	for i, spec := range specs {
		h, err := s2.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("resubmit %s: %v", spec.ID, err)
		}
		handles[i] = h
	}
	for i, h := range handles {
		res, err := h.Wait(context.Background())
		if err != nil {
			t.Fatalf("resumed lot %s: %v", specs[i].ID, err)
		}
		if res.Replayed == 0 {
			t.Fatalf("lot %s replayed nothing after crash", specs[i].ID)
		}
		reportsEqual(t, specs[i].ID+" resumed", res.Report, serialReference(t, f, pool, specs[i], faults))
	}
}

// TestGracefulDrain: Shutdown stops admission, finishes in-flight
// devices, checkpoints journals and answers clients; a new server
// resumes the interrupted lot to identical bins.
func TestGracefulDrain(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	dir := t.TempDir()

	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 1
	opt.JournalDir = dir
	opt.Hook = paceTester(5 * time.Millisecond)
	s1, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}

	spec := LotSpec{ID: "draintest", Seed: 99, Devices: 36}
	h, err := s1.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCommitted(t, s1, spec.ID, 1)

	drained := make(chan error, 1)
	go func() { drained <- s1.Shutdown(context.Background()) }()

	// Wait for the drain to take effect (the flag flips at the start of
	// Shutdown, but the goroutine may not have run yet).
	deadline := time.Now().Add(5 * time.Second)
	for !s1.Status().Draining {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	// Admission during the drain answers ErrDraining.
	if _, err := s1.Submit(context.Background(), LotSpec{ID: "late", Seed: 1, Devices: 4}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}

	res, werr := h.Wait(context.Background())
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if werr == nil {
		// The lot beat the drain; its bins must still be right.
		reportsEqual(t, "drained-complete", res.Report, serialReference(t, f, pool, spec, nil))
		return
	}
	if !errors.Is(werr, ErrAborted) {
		t.Fatalf("drained lot Wait = %v, want ErrAborted", werr)
	}

	// Resume on a fresh server: bit-identical.
	s2, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Kill()
	h2, err := s2.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := h2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Replayed == 0 {
		t.Fatal("drain did not checkpoint the journal")
	}
	reportsEqual(t, "drain-resumed", res2.Report, serialReference(t, f, pool, spec, nil))
}

// TestFairScheduling: a small lot submitted after a mega-lot still
// finishes first — round-robin interleaving, not FIFO starvation.
func TestFairScheduling(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 2
	opt.MaxActiveLots = 2
	// Device-level interleave at a tester's pace, so the small lot's
	// admission lands while the mega lot is still screening;
	// TestSchedulerBatchesNeverSpanLots covers batch-level fairness.
	opt.Batch = 1
	opt.Hook = paceTester(5 * time.Millisecond)
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	mega := LotSpec{ID: "mega", Seed: 1, Devices: 36}
	small := LotSpec{ID: "small", Seed: 2, Devices: 6}
	mh, err := s.Submit(context.Background(), mega)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := s.Submit(context.Background(), small)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sh.Done():
		// Small lot finished; mega must still be running (36 vs 6 devices
		// with fair interleave: mega cannot be done yet unless the
		// scheduler starved the small lot instead).
		select {
		case <-mh.Done():
			t.Fatal("mega lot finished before or with the small lot — scheduling is not fair")
		default:
		}
	case <-mh.Done():
		t.Fatal("mega lot finished first — the small lot was starved")
	}
	if _, err := mh.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWireClient: the full client protocol over TCP loopback — submit,
// accepted, done with a summary matching the serial reference; a bad
// spec is rejected with a typed code.
func TestWireClient(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 24)
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 1
	opt.MaxActiveLots = 2
	opt.JournalDir = t.TempDir()
	// Client-protocol timings: no remote sites here, so the idle window can
	// be generous — a race-detector-loaded scheduler must not read as a
	// dead peer.
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

	specs := []LotSpec{
		{ID: "wire-a", Seed: 99, Devices: 24},
		{ID: "wire-b", Seed: 7, Devices: 10},
	}
	var wg sync.WaitGroup
	sums := make([]*LotSummary, len(specs))
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec LotSpec) {
			defer wg.Done()
			sums[i], errs[i] = cli.Run(context.Background(), spec)
		}(i, spec)
	}
	wg.Wait()
	for i, spec := range specs {
		if errs[i] != nil {
			t.Fatalf("lot %s: %v", spec.ID, errs[i])
		}
		want := serialReference(t, f, pool, spec, nil)
		got := sums[i]
		if got.Devices != want.Devices || got.Pass != want.Pass ||
			got.Fail != want.Fail || got.Fallback != want.Fallback {
			t.Fatalf("lot %s summary %+v does not match serial report (pass %d fail %d fallback %d)",
				spec.ID, got, want.Pass, want.Fail, want.Fallback)
		}
	}

	// Typed rejection: a lot bigger than the pool.
	_, err = cli.Run(context.Background(), LotSpec{ID: "too-big", Seed: 1, Devices: len(pool) + 1})
	var rej *RejectionError
	if !errors.As(err, &rej) || rej.Code != CodeBadRequest {
		t.Fatalf("oversized lot error = %v, want RejectionError{bad_request}", err)
	}
}

// TestStatusEndpoint: /statusz decodes and reflects the serving state.
func TestStatusEndpoint(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 12)
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 1
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	h, err := s.Submit(context.Background(), LotSpec{ID: "statlot", Seed: 3, Devices: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(s.StatusHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.LotsCompleted != 1 || st.DevicesCommitted != 12 {
		t.Fatalf("status = %+v, want 1 lot / 12 devices completed", st)
	}
	if st.MaxActiveLots <= 0 || st.LocalWorkers != 1 {
		t.Fatalf("status limits missing: %+v", st)
	}
	if st.LatencyP50Ms < 0 || st.LatencyP99Ms < st.LatencyP50Ms {
		t.Fatalf("latency percentiles inconsistent: %+v", st)
	}
}
