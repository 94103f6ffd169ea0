package lotserver

// Chaos soak: disk faults (seeded diskfault.FaultFS under the journal
// dir), network faults (seeded netfloor.FaultConn on every site link) and
// process faults (a transient panic hook on the local worker) composed
// over a multi-lot server run. The invariants are the robustness
// contract of the whole pipeline:
//
//   1. Committed bins are bit-identical to a fault-free serial reference
//      — storage and transport faults may cost time or the journal,
//      never correctness.
//   2. Every lot terminates with either a full report or a typed error
//      (ErrAborted, carrying lotrun.ErrJournalDegraded when the journal
//      died first) — no silent partial outcomes.
//   3. A surviving journal, replayed with the plain OS filesystem,
//      reproduces exactly the reference result for every index it holds.
//
// Every schedule is a pure function of its seed. A failing run is
// replayed exactly with:
//
//	go test -race -run ChaosSoak ./internal/lotserver/ -args -chaosseed=<seed>

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/diskfault"
	"repro/internal/floor"
	"repro/internal/lotrun"
	"repro/internal/netfloor"
	"repro/internal/parallel"
)

var chaosSeed = flag.Int64("chaosseed", -1,
	"replay a single chaos soak schedule seed (-1 runs the fixed CI set)")

// chaosDiskProfile is the storage-fault mix for the soak: every failure
// mode the injector models, at rates high enough that a three-lot run
// sees dozens of faults.
func chaosDiskProfile() diskfault.Profile {
	return diskfault.Profile{
		WriteErrP:   0.05,
		ShortWriteP: 0.05,
		ENOSPCP:     0.02,
		SyncErrP:    0.05,
		DelayP:      0.05,
		DelayMax:    time.Millisecond,
	}
}

// TestChaosSoak is the capstone: three concurrent lots screened over a
// faulty network, journaled onto faulty storage, with transient panics
// injected on the local worker — and the bins still match the serial
// reference bit for bit.
func TestChaosSoak(t *testing.T) {
	seeds := []int64{3, 17, 29}
	if *chaosSeed >= 0 {
		seeds = []int64{*chaosSeed}
	}
	f := getFixture(t)
	pool := testPool(t, f, 36)
	faults := floor.DefaultFaultModel(0.10)
	specs := []LotSpec{
		{ID: "alpha", Seed: 99, Devices: 36},
		{ID: "beta", Seed: 1234, Devices: 25},
		{ID: "gamma", Seed: 42, Devices: 12},
	}
	refs := make(map[string]*floor.LotReport, len(specs))
	for _, spec := range specs {
		refs[spec.ID] = serialReference(t, f, pool, spec, faults)
	}

	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fm := newFarm(t, f, pool, faults, 3)
			ffs := diskfault.NewFaultFS(diskfault.OS, seed, chaosDiskProfile())
			jdir := t.TempDir()

			opt := serverOpts(f, pool, faults)
			opt.Sites = fm.addrs
			opt.Dialer = fm.dialer(netfloor.FaultProfile{
				DropP: 0.03, DupP: 0.05, DelayP: 0.10, DelayMax: 2 * time.Millisecond,
			}, seed)
			opt.NetSeed = seed
			opt.LocalWorkers = 1
			opt.JournalDir = jdir
			opt.MaxActiveLots = 3
			opt.FS = ffs
			opt.JournalRetry = lotrun.RetryPolicy{Attempts: 3, Backoff: 100 * time.Microsecond}

			// Transient panic hook: a schedule-chosen subset of devices
			// panics on its first pass through the local worker, is
			// requeued, and screens cleanly on the retry. The panic fires
			// outside the supervised screening region, so it must never
			// turn into a fallback bin.
			var hookMu sync.Mutex
			hookSeen := make(map[string]bool)
			opt.Hook = func(lotID string, device int) {
				key := fmt.Sprintf("%s/%d", lotID, device)
				hookMu.Lock()
				first := !hookSeen[key]
				hookSeen[key] = true
				hookMu.Unlock()
				if first && parallel.SubSeed(seed, device)%5 == 0 {
					panic("chaos: injected worker panic at " + key)
				}
			}

			s, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Kill()

			handles := make([]*LotHandle, len(specs))
			for i, spec := range specs {
				h, err := s.Submit(context.Background(), spec)
				if err != nil {
					t.Fatalf("submit %s: %v", spec.ID, err)
				}
				handles[i] = h
			}
			degraded := 0
			for i, h := range handles {
				spec := specs[i]
				res, err := h.Wait(context.Background())
				if err != nil {
					// Invariant 2: the only acceptable failure is a typed
					// abort — anything else is a silent-corruption bug.
					if !errors.Is(err, ErrAborted) {
						t.Fatalf("lot %s: untyped termination: %v", spec.ID, err)
					}
					t.Logf("lot %s aborted (typed): %v", spec.ID, err)
					continue
				}
				// Invariant 1: bins bit-identical to the fault-free serial
				// reference, journal faults or not.
				reportsEqual(t, spec.ID, res.Report, refs[spec.ID])
				if res.JournalDegraded {
					degraded++
					if res.JournalErr == "" {
						t.Fatalf("lot %s: degraded without a journal error", spec.ID)
					}
					continue
				}
				// Invariant 3: the surviving journal, read back with the
				// plain OS filesystem, holds exactly the reference result
				// for every committed index.
				verifyJournalAgainstReference(t, filepath.Join(jdir, spec.ID+".journal"),
					spec, refs[spec.ID])
			}
			st := ffs.Stats()
			t.Logf("seed %d: disk faults %+v; degraded lots %d", seed, st, degraded)
			if !st.Any() {
				t.Fatalf("seed %d: fault injector never fired — the soak tested nothing", seed)
			}
		})
	}
}

// verifyJournalAgainstReference replays one journal with the real
// filesystem and checks every record against the serial reference.
func verifyJournalAgainstReference(t *testing.T, path string, spec LotSpec, ref *floor.LotReport) {
	t.Helper()
	hdr, done, _, stats, err := lotrun.ReplayJournal(path)
	if err != nil {
		t.Fatalf("lot %s: journal unreadable after faulty run: %v", spec.ID, err)
	}
	if hdr.LotSeed != spec.Seed || hdr.Devices != spec.Devices {
		t.Fatalf("lot %s: journal header (seed %d devices %d) does not match spec",
			spec.ID, hdr.LotSeed, hdr.Devices)
	}
	byIndex := make(map[int]floor.DeviceResult, len(ref.Results))
	for _, r := range ref.Results {
		byIndex[r.Index] = r
	}
	for idx, got := range done {
		want, ok := byIndex[idx]
		if !ok {
			t.Fatalf("lot %s: journal holds device %d absent from the reference", spec.ID, idx)
		}
		got.Site, want.Site = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lot %s: journaled device %d diverges from serial reference:\n%+v\nvs\n%+v",
				spec.ID, idx, got, want)
		}
	}
	t.Logf("lot %s: journal verified (%d records, %d corrupt lines skipped, %d duplicates)",
		spec.ID, stats.Records, stats.Corrupt, stats.Duplicates)
}

// TestJournalDegradedMode: a deterministic dead journal (every fsync
// fails) must not kill the lot. It completes with correct bins,
// LotResult/LotReport carry the typed degradation, and /statusz counts
// the lot.
func TestJournalDegradedMode(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 24)
	cases := []struct {
		name string
		prof diskfault.Profile
	}{
		// Every fsync fails from op zero: the journal cannot even be
		// created, so the lot is admitted directly in degraded mode.
		{"at-create", diskfault.Profile{SyncErrP: 1}},
		// Setup (mkdir, stat, create, header write+sync, dir sync, first
		// commit) is spared; a later device commit exhausts its retries
		// and the lot degrades mid-flight.
		{"mid-lot", diskfault.Profile{SyncErrP: 1, FirstFaultOp: 8}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opt := serverOpts(f, pool, nil)
			opt.LocalWorkers = 1
			opt.JournalDir = t.TempDir()
			opt.FS = diskfault.NewFaultFS(diskfault.OS, 1, tc.prof)
			opt.JournalRetry = lotrun.RetryPolicy{Attempts: 2, Backoff: 50 * time.Microsecond}
			s, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Kill()

			spec := LotSpec{ID: "deglot", Seed: 99, Devices: 24}
			h, err := s.Submit(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.Wait(context.Background())
			if err != nil {
				t.Fatalf("degraded lot must complete, got %v", err)
			}
			if !res.JournalDegraded || res.JournalErr == "" {
				t.Fatalf("LotResult not marked degraded: %+v / %q", res.JournalDegraded, res.JournalErr)
			}
			if !res.Report.JournalDegraded || res.Report.JournalErr == "" {
				t.Fatal("LotReport not marked degraded")
			}
			if !strings.Contains(res.Report.String(), "journal degraded") {
				t.Fatal("report rendering does not warn about the degraded journal")
			}
			// Bins are still the pure function of (seed, index): identical
			// to the fault-free serial reference.
			reportsEqual(t, tc.name, res.Report, serialReference(t, f, pool, spec, nil))

			// The degradation is an operator-visible state: /statusz
			// carries the counter.
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
			if st.LotsDegraded != 1 {
				t.Fatalf("/statusz LotsDegraded = %d, want 1", st.LotsDegraded)
			}
		})
	}
}

// TestClientDegradedError: over the wire, a degraded lot answers "done"
// with both the full summary and the typed lotrun.ErrJournalDegraded —
// the client gets its bins and cannot miss that resume is gone.
func TestClientDegradedError(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 12)
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 1
	opt.JournalDir = t.TempDir()
	opt.FS = diskfault.NewFaultFS(diskfault.OS, 1, diskfault.Profile{SyncErrP: 1})
	opt.JournalRetry = lotrun.RetryPolicy{Attempts: 2, Backoff: 50 * time.Microsecond}
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

	spec := LotSpec{ID: "wire-deg", Seed: 7, Devices: 12}
	sum, err := cli.Run(context.Background(), spec)
	if !errors.Is(err, lotrun.ErrJournalDegraded) {
		t.Fatalf("client error = %v, want ErrJournalDegraded", err)
	}
	if sum == nil || !sum.JournalDegraded || sum.JournalErr == "" {
		t.Fatalf("degraded summary missing or unmarked: %+v", sum)
	}
	want := serialReference(t, f, pool, spec, nil)
	if sum.Devices != want.Devices || sum.Pass != want.Pass ||
		sum.Fail != want.Fail || sum.Fallback != want.Fallback {
		t.Fatalf("degraded summary %+v does not match serial bins (pass %d fail %d fallback %d)",
			sum, want.Pass, want.Fail, want.Fallback)
	}
}

// TestDrainDegradedJournal: a staged drain catching a dead-journal lot
// mid-flight must tell the waiting client that its progress is NOT on
// disk — the abort error carries lotrun.ErrJournalDegraded, because a
// resubmit will re-screen from scratch.
func TestDrainDegradedJournal(t *testing.T) {
	f := getFixture(t)
	pool := testPool(t, f, 36)
	opt := serverOpts(f, pool, nil)
	opt.LocalWorkers = 1
	opt.Hook = paceTester(5 * time.Millisecond)
	opt.JournalDir = t.TempDir()
	opt.FS = diskfault.NewFaultFS(diskfault.OS, 1, diskfault.Profile{SyncErrP: 1})
	opt.JournalRetry = lotrun.RetryPolicy{Attempts: 2, Backoff: 50 * time.Microsecond}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Kill()

	spec := LotSpec{ID: "drain-deg", Seed: 99, Devices: 36}
	h, err := s.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCommitted(t, s, spec.ID, 1)

	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(context.Background()) }()

	res, werr := h.Wait(context.Background())
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if werr == nil {
		// The lot beat the drain: it must still be marked degraded.
		if !res.JournalDegraded {
			t.Fatal("lot finished under drain without degraded marking")
		}
		reportsEqual(t, "drain-deg-complete", res.Report, serialReference(t, f, pool, spec, nil))
		return
	}
	if !errors.Is(werr, ErrAborted) {
		t.Fatalf("drained lot Wait = %v, want ErrAborted", werr)
	}
	if !errors.Is(werr, lotrun.ErrJournalDegraded) {
		t.Fatalf("drain abort does not carry ErrJournalDegraded: %v", werr)
	}
}
