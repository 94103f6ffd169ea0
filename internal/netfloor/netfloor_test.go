package netfloor_test

// The distributed floor end to end: netfloor Sites behind a fault-injecting
// transport, driven by the one lot runner there is — a lotserver.Server
// serving a single lot, as sigtest -remote and examples/production do.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/ate"
	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/lna"
	"repro/internal/lotrun"
	"repro/internal/lotserver"
	"repro/internal/netfloor"
	"repro/internal/parallel"
	"repro/internal/wave"
)

// fixture is the shared engineering phase (stimulus, calibration, gate),
// built once for the whole package — the same recipe as the lotrun and
// lotserver tests, so bit-identity claims span every floor.
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

func quietBreaker() lotrun.BreakerConfig { return lotrun.BreakerConfig{TripConsecutive: 1 << 20} }

// reportsEqual compares two lot reports modulo what legitimately depends
// on which site screened which device: Site ordinals and the modeled
// economics charges (network time scales with the retry count, quarantine
// with device placement, journal time with journaling), plus the Time
// comparison derived from them. Everything else — bins, mis-bins, fault
// counts, verdicts, retest histogram, per-device results — must be
// bit-identical across floors.
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

// farm is an in-process test floor: persistent Sites reachable through a
// net.Pipe dialer, with independent fault streams on each end of every
// connection. Sites persist across reconnects, exactly like separate
// sitetester processes would.
type farm struct {
	ctx   context.Context
	sites map[string]*netfloor.Site
	addrs []string

	mu    sync.Mutex
	conns int
	wg    sync.WaitGroup
}

func newFarm(t *testing.T, f *fixture, lot []*core.Device, faults *floor.FaultModel, n int) *farm {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	fm := &farm{ctx: ctx, sites: make(map[string]*netfloor.Site)}
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("site%d", i)
		fm.addrs = append(fm.addrs, addr)
		fm.sites[addr] = &netfloor.Site{
			Name: addr, Engine: f.engine(), Lot: lot, Faults: faults,
			HeartbeatInterval: 10 * time.Millisecond,
		}
	}
	t.Cleanup(func() {
		cancel()
		fm.wg.Wait()
	})
	return fm
}

// dialer returns a Dialer producing net.Pipe connections to the farm's
// sites; a non-zero profile faults BOTH directions, each with its own
// deterministic stream.
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

// remoteOpts is the fast-timing server configuration for a one-lot
// distributed floor: the lot is the whole pool, screened by the given
// sites (no local workers, so the remote-less fallback stands by).
func remoteOpts(f *fixture, lot []*core.Device, faults *floor.FaultModel, sites []string, d netfloor.Dialer) lotserver.Options {
	return lotserver.Options{
		Engine: f.engine(), Pool: lot, Faults: faults,
		Sites:             sites,
		Dialer:            d,
		RequestTimeout:    2 * time.Second,
		HeartbeatInterval: 10 * time.Millisecond,
		IdleTimeout:       80 * time.Millisecond,
		RetryBase:         5 * time.Millisecond,
		RetryMax:          50 * time.Millisecond,
		Breaker:           quietBreaker(),
	}
}

func spec(seed int64, lot []*core.Device) lotserver.LotSpec {
	return lotserver.LotSpec{ID: "lot", Seed: seed, Devices: len(lot)}
}

// serve screens one lot on a fresh server, hands the server to inspect
// (which may cancel the submission) while the lot runs, and stops the
// server once the lot ends. The returned status is taken after the lot
// ended, before the server stopped.
func serve(t *testing.T, opt lotserver.Options, sp lotserver.LotSpec, inspect func(*lotserver.Server, context.CancelFunc)) (*lotserver.LotResult, lotserver.Status, error) {
	t.Helper()
	s, err := lotserver.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, err := s.Submit(ctx, sp)
	if err != nil {
		return nil, s.Status(), err
	}
	if inspect != nil {
		inspect(s, cancel)
	}
	res, err := h.Wait(context.Background())
	return res, s.Status(), err
}

func mustServe(t *testing.T, opt lotserver.Options, sp lotserver.LotSpec) (*lotserver.LotResult, lotserver.Status) {
	t.Helper()
	res, st, err := serve(t, opt, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, st
}

// screenedBy counts the lot's devices whose committed result came from
// worker ordinal w (remote sites are 0..len(Sites)-1, the local fallback
// is len(Sites)).
func screenedBy(rep *floor.LotReport, w int) int {
	n := 0
	for _, r := range rep.Results {
		if r.Site == w {
			n++
		}
	}
	return n
}

// TestDistributedBitIdentity is the acceptance test: for a fixed lot
// seed, the bins from (a) the serial engine, (b) four local sites, (c)
// 1, 4 and 8 remote sites under injected drop/duplicate/partition
// faults, and (d) a distributed lot killed mid-run and resumed, are all
// identical.
func TestDistributedBitIdentity(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 48)
	faults := floor.DefaultFaultModel(0.15)
	const seed = 99

	serial, err := f.engine().RunLot(seed, lot, faults)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := mustServe(t, lotserver.Options{
		Engine: f.engine(), Pool: lot, Faults: faults, LocalWorkers: 4, Breaker: quietBreaker(),
	}, spec(seed, lot))
	reportsEqual(t, "serial vs 4-site local", serial, local.Report)

	prof := netfloor.FaultProfile{DropP: 0.03, DupP: 0.05, PartitionAfter: 150}
	for _, sites := range []int{1, 4, 8} {
		sites := sites
		t.Run(fmt.Sprintf("sites=%d", sites), func(t *testing.T) {
			fm := newFarm(t, f, lot, faults, sites)
			res, _ := mustServe(t, remoteOpts(f, lot, faults, fm.addrs, fm.dialer(prof, int64(sites))), spec(seed, lot))
			reportsEqual(t, fmt.Sprintf("serial vs %d-site distributed", sites), serial, res.Report)
			if res.Report.Load.NetworkS <= 0 {
				t.Fatal("distributed lot charged no network time")
			}
		})
	}

	// Kill-and-resume: interrupt the distributed run after 15 commits,
	// then resubmit it (fresh server and farm, same journal) — same bins
	// again.
	t.Run("kill-and-resume", func(t *testing.T) {
		dir := t.TempDir()
		fm := newFarm(t, f, lot, faults, 4)
		opt := remoteOpts(f, lot, faults, fm.addrs, fm.dialer(prof, 77))
		opt.JournalDir = dir
		opt.Batch = 1 // one device per assignment: the cancel lands mid-lot
		_, _, err := serve(t, opt, spec(seed, lot), func(s *lotserver.Server, cancel context.CancelFunc) {
			waitCommitted(t, s, "lot", 15)
			cancel()
		})
		if !errors.Is(err, lotserver.ErrAborted) {
			t.Fatalf("killed distributed lot: err=%v, want ErrAborted", err)
		}

		fm2 := newFarm(t, f, lot, faults, 4)
		opt2 := remoteOpts(f, lot, faults, fm2.addrs, fm2.dialer(prof, 78))
		opt2.JournalDir = dir
		res, _ := mustServe(t, opt2, spec(seed, lot))
		if res.Replayed == 0 || res.Replayed >= len(lot) {
			t.Fatalf("resume replayed %d of %d devices; want partial progress", res.Replayed, len(lot))
		}
		reportsEqual(t, "distributed kill-and-resume", serial, res.Report)
	})
}

// waitCommitted polls until the lot has committed at least n devices (or
// has already finished).
func waitCommitted(t *testing.T, s *lotserver.Server, lotID string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		active := false
		for _, ls := range s.Status().ActiveLots {
			if ls.ID == lotID {
				active = true
				if ls.Committed >= n {
					return
				}
			}
		}
		if !active {
			t.Fatalf("lot %s ended before committing %d devices", lotID, n)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("lot %s never reached %d committed devices", lotID, n)
}

// TestPartitionFailover: every connection black-holes after a few
// messages. The server must detect the silence via the idle timeout,
// reconnect, reassign what was in flight, and still finish with the
// serial bins — and the status must show the network actually failed.
func TestPartitionFailover(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 24)
	const seed = 41

	serial, err := f.engine().RunLot(seed, lot, nil)
	if err != nil {
		t.Fatal(err)
	}

	fm := newFarm(t, f, lot, nil, 2)
	prof := netfloor.FaultProfile{PartitionAfter: 12}
	start := time.Now()
	res, st := mustServe(t, remoteOpts(f, lot, nil, fm.addrs, fm.dialer(prof, 5)), spec(seed, lot))
	elapsed := time.Since(start)
	reportsEqual(t, "partition failover", serial, res.Report)
	reconnects, retries, reassigns := 0, 0, 0
	for _, s := range st.Sites {
		reconnects += s.Reconnects
		retries += s.Retries
		reassigns += s.Reassigns
	}
	if reconnects == 0 {
		t.Fatal("partitioned floor finished without a single reconnect")
	}
	if remote := len(lot) - screenedBy(res.Report, len(fm.addrs)); remote == 0 {
		t.Fatal("no device was screened through the network")
	}
	t.Logf("partition failover: %d reconnects, %d retries, %d reassigned, %d dups absorbed, %d local in %v",
		reconnects, retries, reassigns, res.Dups, screenedBy(res.Report, len(fm.addrs)), elapsed)
}

// TestAllRemotesDownLocalFallback: with every dial failing, the
// remote-less fallback screens the entire lot — same bins, and the
// results say who did the work.
func TestAllRemotesDownLocalFallback(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 16)
	const seed = 13

	serial, err := f.engine().RunLot(seed, lot, nil)
	if err != nil {
		t.Fatal(err)
	}
	down := func(ctx context.Context, addr string) (net.Conn, error) {
		return nil, fmt.Errorf("connection refused")
	}
	opt := remoteOpts(f, lot, nil, []string{"deadsite"}, down)
	opt.HeartbeatInterval = 5 * time.Millisecond
	opt.IdleTimeout = 20 * time.Millisecond
	opt.RetryMax = 20 * time.Millisecond
	res, st := mustServe(t, opt, spec(seed, lot))
	reportsEqual(t, "all-remotes-down fallback", serial, res.Report)
	if got := screenedBy(res.Report, 1); got != len(lot) {
		t.Fatalf("local fallback screened %d of %d devices", got, len(lot))
	}
	if st.Sites[0].DialFails == 0 {
		t.Fatal("dead remote produced no dial failures")
	}
}

// TestHelloRejectsMismatchedSite: a site serving a different device pool
// is permanently abandoned after the handshake; the lot still finishes
// via the remote-less fallback and the status names the abandonment.
func TestHelloRejectsMismatchedSite(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 8)
	const seed = 3

	fm := newFarm(t, f, lot[:7], nil, 1) // site built for the WRONG pool
	res, st := mustServe(t, remoteOpts(f, lot, nil, fm.addrs, fm.dialer(netfloor.FaultProfile{}, 0)), spec(seed, lot))
	if st.Sites[0].Abandoned == "" {
		t.Fatal("mismatched site was not abandoned")
	}
	if got := screenedBy(res.Report, 1); got != len(lot) {
		t.Fatalf("local fallback screened %d of %d after abandonment", got, len(lot))
	}
	serial, err := f.engine().RunLot(seed, lot, nil)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "abandoned-site lot", serial, res.Report)
}

// TestExactlyOnceUnderDuplication: a duplication-heavy transport delivers
// results (and assignments) twice; the journal must still contain each
// device exactly once, and the dedup counter must show the machinery
// actually absorbed something.
func TestExactlyOnceUnderDuplication(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 24)
	const seed = 21

	fm := newFarm(t, f, lot, nil, 3)
	opt := remoteOpts(f, lot, nil, fm.addrs, fm.dialer(netfloor.FaultProfile{DupP: 0.5}, 9))
	opt.JournalDir = t.TempDir()
	res, _ := mustServe(t, opt, spec(seed, lot))

	hdr, results, _, stats, err := lotrun.ReplayJournal(filepath.Join(opt.JournalDir, "lot.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duplicates != 0 {
		t.Fatalf("journal holds %d duplicate records; commit is not exactly-once", stats.Duplicates)
	}
	if len(results) != len(lot) || stats.Records != len(lot) {
		t.Fatalf("journal holds %d records for %d devices", stats.Records, len(lot))
	}
	if hdr.Fingerprint != f.engine().Fingerprint() {
		t.Fatal("journal header lost the engine fingerprint")
	}

	serial, err := f.engine().RunLot(seed, lot, nil)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "duplication-heavy lot", serial, res.Report)
	local := screenedBy(res.Report, len(fm.addrs))
	if local > len(lot)/4 {
		t.Fatalf("local fallback screened %d of %d devices while every remote was healthy", local, len(lot))
	}
	// Each assignment carries at most floor.DefaultBatch devices.
	if res.Assigns*floor.DefaultBatch < len(lot)-local {
		t.Fatalf("%d assigns for %d remote devices: the lot was not screened remotely", res.Assigns, len(lot)-local)
	}
	if res.Dups == 0 {
		t.Fatal("a 50% duplication transport exercised no dedup at all")
	}
	t.Logf("dup lot: %d duplicate results absorbed, %d assigns", res.Dups, res.Assigns)
}

// TestNetSoak is the -race soak: the full fault cocktail — drop,
// duplicate, corrupt, delay and recurring partitions — on both directions
// of every connection, across reconnect epochs, still converges to the
// serial bins. Kept small enough for -short CI.
func TestNetSoak(t *testing.T) {
	f := getFixture(t)
	n := 24
	if testing.Short() {
		n = 12
	}
	lot := testLot(t, f, n)
	faults := floor.DefaultFaultModel(0.1)
	const seed = 77

	serial, err := f.engine().RunLot(seed, lot, faults)
	if err != nil {
		t.Fatal(err)
	}

	fm := newFarm(t, f, lot, faults, 4)
	prof := netfloor.FaultProfile{
		DropP:          0.05,
		DupP:           0.05,
		CorruptP:       0.02,
		DelayP:         0.1,
		DelayMax:       3 * time.Millisecond,
		PartitionAfter: 60,
	}
	opt := remoteOpts(f, lot, faults, fm.addrs, fm.dialer(prof, 1234))
	opt.RequestTimeout = time.Second
	res, st := mustServe(t, opt, spec(seed, lot))
	reportsEqual(t, "soak", serial, res.Report)
	retries, reconnects := 0, 0
	for _, s := range st.Sites {
		retries += s.Retries
		reconnects += s.Reconnects
	}
	t.Logf("soak: %d assigns, %d retries, %d reconnects, %d dups absorbed, %d local",
		res.Assigns, retries, reconnects, res.Dups, screenedBy(res.Report, len(fm.addrs)))
}

// TestResumeRejectsWrongRig: the journal pins the lot identity AND the
// engine fingerprint; a resubmission with another seed, or on a
// differently calibrated server, must be refused — the latter with the
// typed ErrModelMismatch.
func TestResumeRejectsWrongRig(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 8)
	const seed = 55

	fm := newFarm(t, f, lot, nil, 1)
	opt := remoteOpts(f, lot, nil, fm.addrs, fm.dialer(netfloor.FaultProfile{}, 0))
	opt.JournalDir = t.TempDir()
	mustServe(t, opt, spec(seed, lot))

	if _, _, err := serve(t, opt, spec(seed+1, lot), nil); err == nil {
		t.Fatal("wrong seed must be refused")
	}
	rig := opt
	rig.Engine = f.engine()
	rig.Engine.Policy.MaxRetests += 3 // different policy → different fingerprint
	if _, _, err := serve(t, rig, spec(seed, lot), nil); !errors.Is(err, lotrun.ErrModelMismatch) {
		t.Fatalf("differently calibrated engine: err=%v, want ErrModelMismatch", err)
	}
}
