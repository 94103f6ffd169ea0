package netfloor_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskfault"
	"repro/internal/lotrun"
	"repro/internal/modelreg"
	"repro/internal/netfloor"
)

// readSkippingHeartbeats reads frames until one that is not a heartbeat
// arrives; the manual-protocol tests below drive a real Site over a pipe,
// so its liveness beacons interleave with the replies under test.
func readSkippingHeartbeats(t *testing.T, mc *netfloor.MsgConn) *netfloor.Envelope {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		env, err := mc.Read(time.Second)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if env.Type == netfloor.MsgHeartbeat {
			continue
		}
		return env
	}
	t.Fatal("no non-heartbeat frame within deadline")
	return nil
}

// siteHello is the identity a coordinator presents to site.
func siteHello(site *netfloor.Site) netfloor.Hello {
	faultP := 0.0
	if site.Faults != nil {
		faultP = site.Faults.TotalP()
	}
	return netfloor.Hello{
		Version:     netfloor.ProtocolVersion,
		Devices:     len(site.Lot),
		FaultP:      faultP,
		Fingerprint: site.Engine.Fingerprint(),
	}
}

// hello opens one connection to the farm's site0, sends h and returns the
// connection with the site's reply.
func hello(t *testing.T, fm *farm, h netfloor.Hello) (*netfloor.MsgConn, *netfloor.Envelope) {
	t.Helper()
	conn, err := fm.dialer(netfloor.FaultProfile{}, 0)(context.Background(), "site0")
	if err != nil {
		t.Fatal(err)
	}
	mc := netfloor.NewMsgConn(conn)
	t.Cleanup(func() { mc.Close() })
	if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgHello, Hello: &h}, time.Second); err != nil {
		t.Fatal(err)
	}
	return mc, readSkippingHeartbeats(t, mc)
}

// TestHandshakeModelMismatchTyped: a site whose engine hashes to a
// different fingerprint — same pool, same board, different calibration —
// refuses the coordinator with the typed model_mismatch code (an upgrade
// problem); a coordinator describing a different floor entirely (another
// pool size) gets identity_mismatch instead. A server meeting the
// recalibrated site abandons it and still finishes its lot.
func TestHandshakeModelMismatchTyped(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 8)
	const seed = 13

	fm := newFarm(t, f, lot, nil, 1)
	// Recalibrate the site differently: policy is part of the screening
	// semantics, so the fingerprint — and only the fingerprint — moves.
	site := fm.sites["site0"]
	site.Engine.Policy.MaxRetests += 2

	h := siteHello(site)
	h.Fingerprint = f.engine().Fingerprint()
	if _, env := hello(t, fm, h); env.Type != netfloor.MsgError || env.Code != netfloor.CodeModelMismatch {
		t.Fatalf("fingerprint-only mismatch: got %s code %q, want error %q", env.Type, env.Code, netfloor.CodeModelMismatch)
	}
	// Another floor: a misconfiguration, not an upgrade problem.
	h = siteHello(site)
	h.Devices++
	if _, env := hello(t, fm, h); env.Type != netfloor.MsgError || env.Code != netfloor.CodeIdentityMismatch {
		t.Fatalf("identity mismatch: got %s code %q, want error %q", env.Type, env.Code, netfloor.CodeIdentityMismatch)
	}

	res, st := mustServe(t, remoteOpts(f, lot, nil, fm.addrs, fm.dialer(netfloor.FaultProfile{}, 0)), spec(seed, lot))
	if st.Sites[0].Abandoned == "" {
		t.Fatal("recalibrated site was not abandoned")
	}
	serial, err := f.engine().RunLot(seed, lot, nil)
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "lot beside a recalibrated site", serial, res.Report)
}

// TestResumeRejectsVersionedJournalTyped: a server without a model
// registry runs the base model only; a journal pinned to a registry
// version, or one whose header carries no engine fingerprint, must be
// refused with the typed lotrun.ErrModelMismatch.
func TestResumeRejectsVersionedJournalTyped(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 6)
	const seed = 29
	fm := newFarm(t, f, lot, nil, 1)

	for _, pin := range []struct {
		fingerprint uint64
		version     int
	}{{f.engine().Fingerprint(), 2}, {0, 0}} {
		dir := t.TempDir()
		jr, err := lotrun.CreateJournalFS(diskfault.OS, filepath.Join(dir, "lot.journal"), lotrun.JournalHeader{
			Type: "header", Version: lotrun.JournalVersion,
			LotSeed: seed, Devices: len(lot),
			Fingerprint:  pin.fingerprint,
			ModelVersion: pin.version,
		})
		if err != nil {
			t.Fatal(err)
		}
		jr.Close()

		opt := remoteOpts(f, lot, nil, fm.addrs, fm.dialer(netfloor.FaultProfile{}, 0))
		opt.JournalDir = dir
		if _, _, err := serve(t, opt, spec(seed, lot), nil); !errors.Is(err, lotrun.ErrModelMismatch) {
			t.Fatalf("resume of a journal pinned to fingerprint %016x v%d: err=%v, want lotrun.ErrModelMismatch",
				pin.fingerprint, pin.version, err)
		}
	}
}

// dialManual opens one connection to a farm site and completes a
// handshake, returning the client conn. The manual client reads
// only when it expects a reply and net.Pipe writes block until read, so a
// site heartbeat falling due while the test computes would time out and
// close the connection; the site's beacons (and its idle timer, ten of
// them) are pushed past the test.
func dialManual(t *testing.T, fm *farm) *netfloor.MsgConn {
	t.Helper()
	fm.sites["site0"].HeartbeatInterval = time.Minute
	mc, ack := hello(t, fm, siteHello(fm.sites["site0"]))
	if ack.Type != netfloor.MsgHelloAck {
		t.Fatalf("handshake: got %s (%s)", ack.Type, ack.Err)
	}
	return mc
}

// TestSiteVersionedAssignFetchesModel: an Assign naming an unknown model
// version makes the site fetch the artifact once, rebuild the engine,
// serve the queued assignment under it, and serve later assignments for
// the same version from cache.
func TestSiteVersionedAssignFetchesModel(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 8)
	const seed = 7

	fm := newFarm(t, f, lot, nil, 1)
	mc := dialManual(t, fm)

	art, err := modelreg.NewArtifact(f.engine(), f.cal, f.gate, "wire test")
	if err != nil {
		t.Fatal(err)
	}
	art.Version = 2
	raw, err := modelreg.EncodeArtifact(art)
	if err != nil {
		t.Fatal(err)
	}

	if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgAssign, Seq: 1, Devices: []int{3}, Seed: seed, Model: 2}, time.Second); err != nil {
		t.Fatal(err)
	}
	env := readSkippingHeartbeats(t, mc)
	if env.Type != netfloor.MsgModelReq || env.Model != 2 {
		t.Fatalf("expected model_req for v2, got %s (model %d)", env.Type, env.Model)
	}
	if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgModel, Model: 2, ModelFP: art.Fingerprint, Artifact: raw}, time.Second); err != nil {
		t.Fatal(err)
	}
	env = readSkippingHeartbeats(t, mc)
	if env.Type != netfloor.MsgResult || env.Device != 3 || env.Model != 2 {
		t.Fatalf("expected result for device 3 under v2, got %s device %d model %d", env.Type, env.Device, env.Model)
	}

	artEng, err := art.Engine(f.engine())
	if err != nil {
		t.Fatal(err)
	}
	want := artEng.ScreenDevice(context.Background(), 3, lot[3], core.DeviceSeed(seed, 3), nil)
	if !reflect.DeepEqual(*env.Result, want) {
		t.Fatalf("wire result diverges from local screening under the artifact engine:\n%+v\nvs\n%+v", *env.Result, want)
	}

	// Second assignment under the same version: served from cache, no
	// second fetch.
	if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgAssign, Seq: 2, Devices: []int{4}, Seed: seed, Model: 2}, time.Second); err != nil {
		t.Fatal(err)
	}
	env = readSkippingHeartbeats(t, mc)
	if env.Type != netfloor.MsgResult || env.Device != 4 {
		t.Fatalf("cached-version assign: got %s device %d", env.Type, env.Device)
	}
	if st := fm.sites["site0"].Stats(); st.ModelFetches != 1 || st.ModelFails != 0 {
		t.Fatalf("fetches=%d fails=%d, want exactly one fetch and no failures", st.ModelFetches, st.ModelFails)
	}
}

// TestSiteRejectsBadModelArtifact: a corrupt or wrong artifact delivery
// fails the queued assignments with a typed model_mismatch error — and
// the connection survives to serve base-model work.
func TestSiteRejectsBadModelArtifact(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 8)
	const seed = 17

	fm := newFarm(t, f, lot, nil, 1)
	mc := dialManual(t, fm)

	if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgAssign, Seq: 5, Devices: []int{2}, Seed: seed, Model: 9}, time.Second); err != nil {
		t.Fatal(err)
	}
	env := readSkippingHeartbeats(t, mc)
	if env.Type != netfloor.MsgModelReq {
		t.Fatalf("expected model_req, got %s", env.Type)
	}
	if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgModel, Model: 9, Artifact: []byte(`{"not":"an artifact"}`)}, time.Second); err != nil {
		t.Fatal(err)
	}
	env = readSkippingHeartbeats(t, mc)
	if env.Type != netfloor.MsgError || env.Code != netfloor.CodeModelMismatch || env.Seq != 5 {
		t.Fatalf("expected coded model_mismatch error for seq 5, got %s code %q seq %d", env.Type, env.Code, env.Seq)
	}

	// Connection still serves the base model.
	if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgAssign, Seq: 6, Devices: []int{2}, Seed: seed}, time.Second); err != nil {
		t.Fatal(err)
	}
	env = readSkippingHeartbeats(t, mc)
	if env.Type != netfloor.MsgResult || env.Device != 2 {
		t.Fatalf("base-model assign after rejection: got %s device %d", env.Type, env.Device)
	}
	if st := fm.sites["site0"].Stats(); st.ModelFails != 1 {
		t.Fatalf("ModelFails=%d, want 1", st.ModelFails)
	}
}

// TestSiteModelCacheEviction: the per-site engine cache is bounded; the
// least-recently-used version is evicted and transparently re-fetched.
func TestSiteModelCacheEviction(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 8)
	const seed = 19

	fm := newFarm(t, f, lot, nil, 1)
	fm.sites["site0"].ModelCacheSize = 2
	mc := dialManual(t, fm)

	art, err := modelreg.NewArtifact(f.engine(), f.cal, f.gate, "evict test")
	if err != nil {
		t.Fatal(err)
	}
	assignUnder := func(seq uint64, version, device int) {
		t.Helper()
		if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgAssign, Seq: seq, Devices: []int{device}, Seed: seed, Model: version}, time.Second); err != nil {
			t.Fatal(err)
		}
		env := readSkippingHeartbeats(t, mc)
		if env.Type == netfloor.MsgModelReq {
			a := *art
			a.Version = version
			raw, err := modelreg.EncodeArtifact(&a)
			if err != nil {
				t.Fatal(err)
			}
			if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgModel, Model: version, ModelFP: a.Fingerprint, Artifact: raw}, time.Second); err != nil {
				t.Fatal(err)
			}
			env = readSkippingHeartbeats(t, mc)
		}
		if env.Type != netfloor.MsgResult || env.Device != device || env.Model != version {
			t.Fatalf("assign under v%d: got %s device %d model %d", version, env.Type, env.Device, env.Model)
		}
	}

	assignUnder(1, 1, 0)
	assignUnder(2, 2, 1)
	assignUnder(3, 3, 2) // evicts v1 (LRU)
	if got := fm.sites["site0"].CachedModels(); len(got) != 2 {
		t.Fatalf("cache holds %v, want 2 versions", got)
	}
	assignUnder(4, 1, 3) // v1 must be re-fetched
	if st := fm.sites["site0"].Stats(); st.ModelFetches != 4 {
		t.Fatalf("ModelFetches=%d, want 4 (v1, v2, v3, v1-again)", st.ModelFetches)
	}
}

// TestSiteRejectsAssignWithoutDevices: every Assign is a batch. A
// single-device frame from a pre-batch peer (Device set, no Devices) or a
// batch naming an index outside the lot is refused with a typed
// bad_assign error under its Seq, and the connection keeps serving.
func TestSiteRejectsAssignWithoutDevices(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 8)
	const seed = 23

	fm := newFarm(t, f, lot, nil, 1)
	mc := dialManual(t, fm)
	for seq, bad := range []*netfloor.Envelope{
		{Type: netfloor.MsgAssign, Device: 2, Seed: seed},
		{Type: netfloor.MsgAssign, Devices: []int{1, len(lot)}, Seed: seed},
	} {
		bad.Seq = uint64(seq + 1)
		if err := mc.Write(bad, time.Second); err != nil {
			t.Fatal(err)
		}
		env := readSkippingHeartbeats(t, mc)
		if env.Type != netfloor.MsgError || env.Code != netfloor.CodeBadAssign || env.Seq != bad.Seq {
			t.Fatalf("assign %+v: got %s code %q seq %d (%s), want a bad_assign error for seq %d",
				bad, env.Type, env.Code, env.Seq, env.Err, bad.Seq)
		}
	}
	if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgAssign, Seq: 9, Devices: []int{2}, Seed: seed}, time.Second); err != nil {
		t.Fatal(err)
	}
	if env := readSkippingHeartbeats(t, mc); env.Type != netfloor.MsgResult || env.Device != 2 || env.Seq != 9 {
		t.Fatalf("valid assign after rejections: got %s device %d seq %d", env.Type, env.Device, env.Seq)
	}
}

// TestHandshakeRefusesProtocolV1: a version-1 coordinator (single-device
// assignments) or a version-2 one (multi-lot flag in its Hello) describes
// a different floor; the site refuses it at the handshake with
// identity_mismatch instead of failing on its first Assign.
func TestHandshakeRefusesProtocolV1(t *testing.T) {
	f := getFixture(t)
	lot := testLot(t, f, 8)
	fm := newFarm(t, f, lot, nil, 1)
	for _, v := range []int{1, 2} {
		h := siteHello(fm.sites["site0"])
		h.Version = v
		_, env := hello(t, fm, h)
		if env.Type != netfloor.MsgError || env.Code != netfloor.CodeIdentityMismatch {
			t.Fatalf("version-%d hello: got %s code %q (%s), want identity_mismatch", v, env.Type, env.Code, env.Err)
		}
	}
}
