package netfloor

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/modelreg"
)

// Site is one remote tester site: it owns a screening engine and the full
// lot (rebuilt locally from the shared engineering seed — the wire never
// carries a device), and serves Assign requests by screening the named
// index. Screening is a deterministic pure function of (lot seed, index),
// so re-screening a re-delivered assignment is harmless; the result cache
// just makes it instant.
//
// One connection carries many lots: every Assign names its own lot seed,
// and the cache is keyed by (seed, index, model version), so lots never
// collide.
type Site struct {
	// Name identifies the site in coordinator reports (default the
	// listener address).
	Name string
	// Engine is the screening engine; its Fingerprint must match the
	// coordinator's.
	Engine *floor.Engine
	// Lot is the full production lot, index-aligned with the coordinator's.
	Lot []*core.Device
	// Faults is the insertion fault model (may be nil); its TotalP must
	// match the coordinator's.
	Faults *floor.FaultModel
	// HeartbeatInterval is how often the site beacons while screening or
	// idle (default 1s).
	HeartbeatInterval time.Duration
	// IdleTimeout is how long the site waits without hearing anything from
	// the coordinator (not even a heartbeat) before dropping the
	// connection (default 10 × HeartbeatInterval).
	IdleTimeout time.Duration
	// DeviceTimeout bounds one device's screening wall time (0 = none),
	// mirroring lotserver.Options.DeviceTimeout.
	DeviceTimeout time.Duration
	// MaxBatch is the most devices this site accepts per assignment,
	// advertised to the coordinator during the handshake (0 means
	// floor.DefaultBatch). The coordinator sends batches of up to the
	// smaller of this and its own batch size. Bins are identical at every
	// size.
	MaxBatch int
	// ModelCacheSize bounds how many versioned model engines the site
	// keeps built at once (default 4); least-recently-used versions are
	// evicted and re-fetched on demand. The base engine (version 0) is
	// never evicted — it is the site's own identity.
	ModelCacheSize int
	// Logf, when set, receives site-side progress lines.
	Logf func(format string, args ...any)

	mu          sync.Mutex
	cache       map[siteCacheKey]floor.DeviceResult
	engines     map[int]*modelEngine
	engineClock uint64
	stats       ServeStats
	draining    chan struct{}
}

// siteCacheKey identifies one screened device. Multi-lot connections
// carry a lot seed per assignment and pin each lot to a model version, so
// the cache must conflate neither two lots' screenings of the same index
// nor two versions' screenings of the same device.
type siteCacheKey struct {
	seed  int64
	idx   int
	model int
}

// modelEngine is one cached versioned engine with its LRU stamp.
type modelEngine struct {
	eng *floor.Engine
	use uint64
}

// ServeStats counts the site-side write failures that previously vanished
// silently: a heartbeat or drain-ack write that errors means the peer may
// be waiting on a frame that will never arrive, and the operator should
// see that in the site's story rather than infer it from coordinator
// retries.
type ServeStats struct {
	// HeartbeatFails counts liveness beacons that failed to send (each one
	// also closes its connection so the peer finds out promptly).
	HeartbeatFails int
	// DrainAckFails counts drain acknowledgements that failed to send.
	DrainAckFails int
	// ErrorSendFails counts MsgError rejections that failed to send.
	ErrorSendFails int
	// DrainNotifyFails counts site-initiated drain announcements that
	// failed to send during a graceful shutdown.
	DrainNotifyFails int
	// ModelFetches counts calibration artifacts requested over the wire
	// (assignments naming a version this site had not built yet).
	ModelFetches int
	// ModelFails counts artifacts that failed to decode, build or verify
	// against their expected fingerprint.
	ModelFails int
}

// Stats returns a snapshot of the site's write-failure counters.
func (s *Site) Stats() ServeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Site) record(f func(*ServeStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Drain begins a graceful shutdown: every connection finishes its
// in-flight device, flushes the Result frame, announces the drain to its
// peer and closes cleanly. Safe to call more than once and from signal
// handlers. Serve keeps accepting until its context cancels, so callers
// pair Drain with a context cancel (or listener close) once connections
// have wound down.
func (s *Site) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining == nil {
		s.draining = make(chan struct{})
	}
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
}

// drainingNow reports whether Drain has been called.
func (s *Site) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining == nil {
		return false
	}
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

func (s *Site) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Site) heartbeat() time.Duration {
	if s.HeartbeatInterval > 0 {
		return s.HeartbeatInterval
	}
	return time.Second
}

func (s *Site) idle() time.Duration {
	if s.IdleTimeout > 0 {
		return s.IdleTimeout
	}
	return 10 * s.heartbeat()
}

// Hello is the identity this site will insist on during the handshake.
func (s *Site) hello() Hello {
	faultP := 0.0
	if s.Faults != nil {
		faultP = s.Faults.TotalP()
	}
	return Hello{
		Version:     ProtocolVersion,
		Devices:     len(s.Lot),
		FaultP:      faultP,
		Fingerprint: s.Engine.Fingerprint(),
	}
}

// Validate checks the site is runnable.
func (s *Site) Validate() error {
	if s.Engine == nil {
		return fmt.Errorf("netfloor: site needs an engine")
	}
	if err := s.Engine.Validate(); err != nil {
		return err
	}
	if len(s.Lot) == 0 {
		return fmt.Errorf("netfloor: site has an empty lot")
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Serve accepts coordinator connections on ln until ctx is cancelled,
// handling each on its own goroutine (a coordinator reconnecting after a
// partition gets a fresh connection while the old one times out).
func (s *Site) Serve(ctx context.Context, ln net.Listener) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Name == "" {
		s.Name = ln.Addr().String()
	}
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("netfloor: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.ServeConn(ctx, conn); err != nil && ctx.Err() == nil {
				s.logf("site %s: connection ended: %v", s.Name, err)
			}
		}()
	}
}

// handshake validates the coordinator's Hello against this site's
// identity: protocol version, engine fingerprint, fault load and
// device-pool size, with lot seeds named per assignment. A refusal carries
// a typed code: a pure fingerprint disagreement is CodeModelMismatch (the
// peer needs a different calibration version, an upgrade problem),
// anything else is CodeIdentityMismatch (a misconfigured floor).
func (s *Site) handshake(h *Hello) (code string, err error) {
	want := s.hello()
	if *h == want {
		return "", nil
	}
	onlyFP := *h
	onlyFP.Fingerprint = want.Fingerprint
	if onlyFP == want {
		return CodeModelMismatch,
			fmt.Errorf("calibration model mismatch: coordinator fingerprint %016x, site %016x",
				h.Fingerprint, want.Fingerprint)
	}
	return CodeIdentityMismatch,
		fmt.Errorf("identity mismatch: coordinator %+v, site %+v", *h, want)
}

// ServeConn handles one coordinator connection: handshake, then an Assign
// → screen batch → Results loop until Drain, error or idle timeout. A
// heartbeat goroutine beacons throughout so the coordinator can tell a
// long-running screen from a dead site.
func (s *Site) ServeConn(ctx context.Context, conn net.Conn) error {
	if err := s.Validate(); err != nil {
		conn.Close()
		return err
	}
	if s.Name == "" {
		s.Name = conn.LocalAddr().String()
	}
	mc := NewMsgConn(conn)
	defer mc.Close()

	// Handshake: the coordinator speaks first; refuse any identity
	// mismatch — a differently calibrated engine would bin differently,
	// silently breaking the lot's determinism contract.
	env, err := mc.Read(s.idle())
	if err != nil {
		return fmt.Errorf("netfloor: handshake read: %w", err)
	}
	if env.Type != MsgHello || env.Hello == nil {
		return fmt.Errorf("netfloor: expected hello, got %s", env.Type)
	}
	hcode, herr := s.handshake(env.Hello)
	if herr != nil {
		if werr := mc.Write(&Envelope{Type: MsgError, Site: s.Name, Code: hcode, Err: herr.Error()}, s.heartbeat()); werr != nil {
			s.record(func(st *ServeStats) { st.ErrorSendFails++ })
			s.logf("site %s: failed to send handshake rejection: %v", s.Name, werr)
		}
		return fmt.Errorf("netfloor: %s", herr)
	}
	ack := *env.Hello // echo the coordinator's identity
	if err := mc.Write(&Envelope{Type: MsgHelloAck, Hello: &ack, Site: s.Name, Batch: s.maxBatch()}, s.idle()); err != nil {
		return err
	}

	// Heartbeat beacon: a separate goroutine so beacons keep flowing while
	// a device is on the (simulated) tester. A failed beacon write is
	// recorded and logged — the peer may be waiting on a frame that will
	// never arrive — and closes the conn so the read loop below unblocks.
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(s.heartbeat())
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if err := mc.Write(&Envelope{Type: MsgHeartbeat, Site: s.Name}, s.heartbeat()); err != nil {
					s.record(func(st *ServeStats) { st.HeartbeatFails++ })
					if hbCtx.Err() == nil {
						s.logf("site %s: heartbeat send failed, closing connection: %v", s.Name, err)
					}
					conn.Close()
					return
				}
			}
		}
	}()
	defer hbWG.Wait()

	// Read at heartbeat granularity (not the full idle timeout) so a
	// graceful drain interrupts an idle connection promptly; lastHeard
	// preserves the idle-timeout contract across the short reads.
	lastHeard := time.Now()
	// pending holds assignments for model versions this connection is
	// still fetching: the first Assign naming an unknown version sends a
	// MsgModelReq, later ones queue behind it, and the MsgModel reply
	// serves them all in arrival order.
	pending := make(map[int][]*Envelope)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if s.drainingNow() {
			return s.announceDrain(mc)
		}
		env, err := mc.Read(s.heartbeat())
		if err != nil {
			if isTimeout(err) {
				if time.Since(lastHeard) > s.idle() {
					return fmt.Errorf("netfloor: peer silent for over %v", s.idle())
				}
				continue
			}
			if errors.Is(err, ErrCorruptFrame) {
				// The stream is desynchronized; only a reset recovers it.
				return err
			}
			return err
		}
		lastHeard = time.Now()
		switch env.Type {
		case MsgHeartbeat:
			// Liveness only; lastHeard was already refreshed.
		case MsgAssign:
			if dev, bad := s.badAssign(env); bad != "" {
				if werr := mc.Write(&Envelope{Type: MsgError, Seq: env.Seq, Device: dev, Site: s.Name,
					Code: CodeBadAssign, Err: bad}, s.heartbeat()); werr != nil {
					s.record(func(st *ServeStats) { st.ErrorSendFails++ })
					s.logf("site %s: failed to send assignment rejection: %v", s.Name, werr)
				}
				continue
			}
			eng := s.Engine
			if env.Model != 0 {
				cached, ok := s.modelEngine(env.Model)
				if !ok {
					pending[env.Model] = append(pending[env.Model], env)
					if len(pending[env.Model]) == 1 {
						s.record(func(st *ServeStats) { st.ModelFetches++ })
						if err := mc.Write(&Envelope{Type: MsgModelReq, Model: env.Model, Site: s.Name}, s.heartbeat()); err != nil {
							return err
						}
					}
					continue
				}
				eng = cached
			}
			if err := s.serveAssign(ctx, mc, env, eng); err != nil {
				return err
			}
		case MsgModel:
			queued := pending[env.Model]
			delete(pending, env.Model)
			eng, merr := s.installModel(env.Model, env.ModelFP, env.Artifact)
			if merr != nil {
				s.record(func(st *ServeStats) { st.ModelFails++ })
				s.logf("site %s: model v%d rejected: %v", s.Name, env.Model, merr)
				for _, q := range queued {
					if werr := mc.Write(&Envelope{Type: MsgError, Seq: q.Seq, Device: q.Devices[0], Site: s.Name,
						Code: CodeModelMismatch, Model: env.Model, Err: merr.Error()}, s.heartbeat()); werr != nil {
						s.record(func(st *ServeStats) { st.ErrorSendFails++ })
						return werr
					}
				}
				continue
			}
			for _, q := range queued {
				if err := s.serveAssign(ctx, mc, q, eng); err != nil {
					return err
				}
			}
		case MsgDrain:
			if werr := mc.Write(&Envelope{Type: MsgDrainAck, Seq: env.Seq, Site: s.Name}, s.heartbeat()); werr != nil {
				s.record(func(st *ServeStats) { st.DrainAckFails++ })
				s.logf("site %s: failed to ack drain: %v", s.Name, werr)
			}
			return nil
		default:
			// Unknown or misdirected message: ignore — a future protocol
			// may add message types old sites can skip.
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// announceDrain tells the peer this site is going away — a courtesy
// MsgDrain so the coordinator reassigns immediately instead of waiting
// out its idle timeout — then ends the connection cleanly.
func (s *Site) announceDrain(mc *MsgConn) error {
	if err := mc.Write(&Envelope{Type: MsgDrain, Site: s.Name}, s.heartbeat()); err != nil {
		s.record(func(st *ServeStats) { st.DrainNotifyFails++ })
		s.logf("site %s: failed to announce drain: %v", s.Name, err)
	}
	return nil
}

// maxBatch is the batch capability this site advertises in its handshake
// ack.
func (s *Site) maxBatch() int {
	if s.MaxBatch > 0 {
		return s.MaxBatch
	}
	return floor.DefaultBatch
}

// badAssign validates an Assign: it must name at least one device, every
// index inside the lot. It returns the offending device and the rejection
// reason, or "" when the assignment is servable.
func (s *Site) badAssign(env *Envelope) (int, string) {
	if len(env.Devices) == 0 {
		return env.Device, "assign names no devices"
	}
	for _, idx := range env.Devices {
		if idx < 0 || idx >= len(s.Lot) {
			return idx, fmt.Sprintf("device %d outside lot [0,%d)", idx, len(s.Lot))
		}
	}
	return 0, ""
}

// serveAssign screens one assignment's batch on the resolved engine and
// writes one Result frame per device, all under the assignment's Seq. The
// returned error is connection-fatal.
func (s *Site) serveAssign(ctx context.Context, mc *MsgConn, env *Envelope, eng *floor.Engine) error {
	results, err := s.screenMany(ctx, eng, env.Seed, env.Devices, env.Model)
	if err != nil {
		// The site is shutting down mid-batch: the results are
		// truncations, not outcomes. Never send them — the coordinator
		// reassigns and re-screens from the same per-device seeds.
		return err
	}
	for i := range results {
		if werr := mc.Write(&Envelope{Type: MsgResult, Seq: env.Seq, Device: results[i].Index,
			Seed: env.Seed, Lot: env.Lot, Model: env.Model, Result: &results[i], Site: s.Name}, s.idle()); werr != nil {
			return werr
		}
	}
	return nil
}

// screenMany resolves a batch of indices against the result cache and
// screens the misses through the engine's batched kernel. Cached and
// fresh results come back index-aligned with idxs; fresh complete results
// are cached with the first-writer-wins discipline when two connections
// race on a device: the cache is shared across connections on purpose,
// so a coordinator that reconnects after a partition gets the same answer
// instantly.
func (s *Site) screenMany(ctx context.Context, eng *floor.Engine, seed int64, idxs []int, model int) ([]floor.DeviceResult, error) {
	out := make([]floor.DeviceResult, len(idxs))
	missPos := make([]int, 0, len(idxs))
	batch := make([]floor.BatchDevice, 0, len(idxs))
	s.mu.Lock()
	for i, idx := range idxs {
		if res, ok := s.cache[siteCacheKey{seed: seed, idx: idx, model: model}]; ok {
			out[i] = res
		} else {
			missPos = append(missPos, i)
			batch = append(batch, floor.BatchDevice{Index: idx, Device: s.Lot[idx], Seed: core.DeviceSeed(seed, idx)})
		}
	}
	s.mu.Unlock()
	if len(batch) == 0 {
		return out, nil
	}

	fresh := ScreenBatchSupervised(ctx, eng, batch, s.Faults, s.DeviceTimeout)
	truncated := false
	s.mu.Lock()
	if s.cache == nil {
		s.cache = make(map[siteCacheKey]floor.DeviceResult)
	}
	for bi := range fresh {
		res := fresh[bi]
		if res.Err != "" && ctx.Err() != nil {
			truncated = true
			continue // a truncation is never cached
		}
		key := siteCacheKey{seed: seed, idx: res.Index, model: model}
		if prev, ok := s.cache[key]; ok {
			res = prev // two connections raced; keep the first
		} else {
			s.cache[key] = res
		}
		out[missPos[bi]] = res
	}
	s.mu.Unlock()
	if truncated {
		return nil, ctx.Err()
	}
	return out, nil
}

// modelEngine returns the cached engine for a calibration version,
// refreshing its LRU stamp.
func (s *Site) modelEngine(v int) (*floor.Engine, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	me, ok := s.engines[v]
	if !ok {
		return nil, false
	}
	s.engineClock++
	me.use = s.engineClock
	return me.eng, true
}

// installModel decodes a fetched artifact, builds its engine on this
// site's base, verifies the expected fingerprint, and caches it with
// bounded LRU eviction.
func (s *Site) installModel(v int, wantFP uint64, artifact []byte) (*floor.Engine, error) {
	if v <= 0 {
		return nil, fmt.Errorf("netfloor: model delivery for invalid version %d", v)
	}
	art, err := modelreg.DecodeArtifact(artifact)
	if err != nil {
		return nil, err
	}
	if art.Version != 0 && art.Version != v {
		return nil, fmt.Errorf("netfloor: artifact claims version %d, delivery says %d", art.Version, v)
	}
	eng, err := art.Engine(s.Engine)
	if err != nil {
		return nil, err
	}
	if wantFP != 0 && eng.Fingerprint() != wantFP {
		return nil, fmt.Errorf("netfloor: model v%d builds fingerprint %016x, coordinator expects %016x",
			v, eng.Fingerprint(), wantFP)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engines == nil {
		s.engines = make(map[int]*modelEngine)
	}
	s.engineClock++
	s.engines[v] = &modelEngine{eng: eng, use: s.engineClock}
	bound := s.ModelCacheSize
	if bound <= 0 {
		bound = 4
	}
	for len(s.engines) > bound {
		victim, oldest := 0, ^uint64(0)
		for ver, me := range s.engines {
			if me.use < oldest {
				victim, oldest = ver, me.use
			}
		}
		delete(s.engines, victim)
	}
	return eng, nil
}

// CachedModels lists the versioned engines currently built (testing and
// status introspection).
func (s *Site) CachedModels() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.engines))
	for v := range s.engines {
		out = append(out, v)
	}
	return out
}

// ScreenBatchSupervised screens one batch under the per-device
// supervision contract: the per-device wall budget (timeout, 0 = none)
// scales with the batch size, and the engine's batched kernel never
// panics — a device's panic fallback-bins that device alone. The remote
// site and the lot server's local workers both screen through it, so a
// device bins identically wherever it lands. Results are batch-aligned
// and bit-identical to screening each entry serially.
func ScreenBatchSupervised(ctx context.Context, eng *floor.Engine, batch []floor.BatchDevice,
	faults *floor.FaultModel, timeout time.Duration) []floor.DeviceResult {
	dctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, time.Duration(len(batch))*timeout)
		defer cancel()
	}
	return eng.ScreenBatch(dctx, batch, faults)
}
