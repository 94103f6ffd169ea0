// Package lotserver is the repo's one lot run loop: it turns "screen a
// lot" into "serve traffic". One server owns a shared rig (engine, device
// pool, fault model) plus the tester sites — local workers and remote
// netfloor sites — and runs many concurrent lots from many clients. A
// single-lot floor is the same server with one lot (Submit + Wait) whose
// pool is the lot itself.
//
// The pillars, in the order they matter:
//
//   - Determinism per lot: a lot's bins are a pure function of (lot seed,
//     device index) — so any interleaving of any number of lots produces
//     bins bit-identical to the serial floor.Engine.RunLot reference.
//     That is what makes the service testable.
//   - Isolation per lot: own seed, own fsync'd journal, own drift
//     watchdog, own per-site circuit breakers. One lot's panic, drift
//     alarm, poisoned devices or journal failure never touches another.
//   - Admission control: a bounded active set and a bounded queue; when
//     both are full the server sheds with an explicit ErrSaturated — the
//     backpressure is a typed answer, never a silent hang.
//   - Fairness: a round-robin scheduler interleaves assignments across
//     active lots, so a mega-lot cannot starve a small one.
//   - Graceful degradation: Shutdown is a staged drain (stop admitting →
//     finish in-flight devices → checkpoint journals → answer clients),
//     and every accepted lot remains crash-safe resumable from its
//     journal — resubmitting after a crash replays committed devices and
//     screens only the rest.
package lotserver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/diskfault"
	"repro/internal/floor"
	"repro/internal/lotrun"
	"repro/internal/modelreg"
	"repro/internal/netfloor"
	"repro/internal/parallel"
)

// Admission and lifecycle sentinel errors — clients match on these to
// tell backpressure (retry later) from rejection (fix the request).
var (
	// ErrDraining rejects submissions while the server is shutting down.
	ErrDraining = errors.New("lotserver: draining, not admitting lots")
	// ErrSaturated sheds a submission because both the active set and the
	// admission queue are full — explicit backpressure, retry later.
	ErrSaturated = errors.New("lotserver: saturated, admission queue full")
	// ErrDuplicateLot rejects a lot ID that is already admitted.
	ErrDuplicateLot = errors.New("lotserver: lot ID already admitted")
	// ErrAborted reports a lot that was cancelled before completing (client
	// cancel, journal failure, server drain); the journal keeps its
	// progress, so resubmitting resumes it.
	ErrAborted = errors.New("lotserver: lot aborted")
)

// LotSpec names one lot: an identity, a seed, and how many devices of the
// server's shared pool it screens (pool[0:Devices]). Two lots may share a
// seed; screening is a pure function of (seed, index), so their bins
// agree device for device.
type LotSpec struct {
	ID      string
	Seed    int64
	Devices int
}

// LotResult is one completed lot's outcome.
type LotResult struct {
	Spec   LotSpec
	Report *floor.LotReport
	Trips  []lotrun.TripEvent
	Alarms []lotrun.DriftAlarm
	// Replayed counts devices restored from the journal instead of
	// screened (non-zero when the lot resumed after a crash or drain).
	Replayed int
	Replay   lotrun.ReplayStats
	// Assigns counts remote assignment round-trips (including retries and
	// hedges); Dups counts duplicate results absorbed by the
	// exactly-once gate.
	Assigns int
	Dups    int
	// JournalDegraded marks a lot whose journal failed persistently: the
	// lot finished journal-less (bins intact and deterministic) but
	// cannot be crash-resumed. JournalErr carries the final journal
	// error; Wait still returns a nil error — degradation is visible
	// state, not failure.
	JournalDegraded bool
	JournalErr      string
}

// Options configures a Server.
type Options struct {
	// Engine is the shared screening engine; Pool the shared device pool a
	// lot draws its prefix from; Faults the shared insertion fault model
	// (may be nil). Remote sites must be built from the same rig — the
	// handshake pins the engine fingerprint, fault load and pool size.
	Engine *floor.Engine
	Pool   []*core.Device
	Faults *floor.FaultModel
	// JournalDir, when non-empty, holds one fsync'd journal per lot
	// (<ID>.journal) making every lot crash-safe resumable. Empty disables
	// journaling (benchmarks).
	JournalDir string
	// Sites are remote tester addresses; Dialer opens connections to them
	// (default TCPDialer; tests inject fault-wrapped pipes).
	Sites  []string
	Dialer netfloor.Dialer
	// LocalWorkers screens devices on the server itself (default 1 when no
	// Sites are configured, else 0). With Sites and no local workers, the
	// server still screens locally once no site has been connected for an
	// IdleTimeout, so a lot ends even when every site is dead.
	LocalWorkers int
	// MaxActiveLots bounds concurrently screening lots (default 4);
	// MaxQueuedLots bounds admitted-but-waiting lots (default 8). Beyond
	// both, Submit sheds with ErrSaturated.
	MaxActiveLots int
	MaxQueuedLots int
	// RequestTimeout bounds one remote assignment round-trip (default 60s);
	// HeartbeatInterval the beacon period (default 1s); IdleTimeout the
	// partition detector (default 4 × HeartbeatInterval).
	RequestTimeout    time.Duration
	HeartbeatInterval time.Duration
	IdleTimeout       time.Duration
	// RetryBase/RetryMax shape reconnect backoff (defaults 100ms / 5s);
	// NetSeed seeds its jitter.
	RetryBase time.Duration
	RetryMax  time.Duration
	NetSeed   int64
	// Breaker tunes the per-(lot, site) circuit breakers; Watchdog the
	// per-lot drift watchdog.
	Breaker  lotrun.BreakerConfig
	Watchdog lotrun.WatchdogConfig
	// ModelRTTS and JournalSyncS are the modeled per-assignment round-trip
	// and per-record fsync costs charged to lot economics (defaults 2ms /
	// 0.5ms, as in netfloor and lotrun).
	ModelRTTS    float64
	JournalSyncS float64
	// FS is the filesystem seam journals are created, replayed and
	// written through (default diskfault.OS; chaos tests substitute a
	// seeded diskfault.FaultFS).
	FS diskfault.FS
	// JournalRetry bounds the per-record retry-with-backoff before a
	// lot's journal is declared dead and the lot degrades to journal-less
	// mode (zero value: 3 attempts, 1ms initial backoff).
	JournalRetry lotrun.RetryPolicy
	// Hook, when set, runs on a local worker once per device of each
	// batch, in batch order, before the batch's kernel call — chaos-test
	// and tracing instrumentation for injecting panics outside the
	// supervised screening region. A hook panic is recovered by the
	// worker and that device requeued untouched, so committed bins are
	// unaffected.
	Hook func(lotID string, device int)
	// DeviceTimeout bounds one device's screening wall time (0 = none).
	DeviceTimeout time.Duration
	// Batch is the most devices one kernel call (local workers) or one
	// remote assignment screens; a site caps it by the MaxBatch it
	// advertises in its handshake ack. 0 means floor.DefaultBatch. Bins
	// are bit-identical at every batch size.
	Batch int
	// Registry, when set, enables the versioned calibration lifecycle:
	// every admitted lot is pinned to exactly one model version for its
	// whole life (the ACTIVE version, or — for a deterministic fraction of
	// lots during a canary rollout — the candidate), journal headers and
	// remote assignments carry the version, and candidates are
	// shadow-scored against the incumbent before promotion. Nil keeps the
	// single-model behavior (Engine is the only calibration).
	Registry *modelreg.Registry
	// ShadowBounds are the divergence tolerances that gate promotion and
	// trigger automatic rollback (zero values take modelreg defaults).
	ShadowBounds modelreg.Bounds
	// CanaryFraction is the fraction of newly admitted lots pinned to the
	// candidate during the canary stage (default 0.25). The pick is a pure
	// function of the lot ID, so a kill-restart pins the same lots.
	CanaryFraction float64
	// Recalibrate, when set with Registry, turns a drift alarm into a
	// staged candidate version instead of stopping the world: the retrain
	// runs off the hot path and the result enters the registry for an
	// operator (or policy) to roll out. It runs at most once per incumbent
	// version until that candidate enters a rollout or is demoted; later
	// alarms are counted against the candidate. Failures are logged and
	// screening continues on the pinned models.
	Recalibrate func(lotID string, a lotrun.DriftAlarm) (*core.Calibration, *floor.Gate, error)
	// OnDrift, when set, receives every drift alarm with its lot ID.
	OnDrift func(lotID string, a lotrun.DriftAlarm)
	// Logf, when set, receives server progress lines.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.Dialer == nil {
		o.Dialer = netfloor.TCPDialer
	}
	if o.LocalWorkers <= 0 && len(o.Sites) == 0 {
		o.LocalWorkers = 1
	}
	if o.MaxActiveLots <= 0 {
		o.MaxActiveLots = 4
	}
	if o.MaxQueuedLots <= 0 {
		o.MaxQueuedLots = 8
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 4 * o.HeartbeatInterval
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = 5 * time.Second
	}
	if o.ModelRTTS <= 0 {
		o.ModelRTTS = 2e-3
	}
	if o.JournalSyncS <= 0 {
		o.JournalSyncS = 0.5e-3
	}
	if o.CanaryFraction <= 0 || o.CanaryFraction > 1 {
		o.CanaryFraction = 0.25
	}
	if o.Batch < 1 {
		o.Batch = floor.DefaultBatch
	}
	if o.FS == nil {
		o.FS = diskfault.OS
	}
}

// lotState is the admission lifecycle, guarded by Server.mu.
type lotState int

const (
	lotAdmitting lotState = iota // reserved, journal not yet open
	lotQueued                    // admitted, waiting for an active slot
	lotActive                    // in the scheduler rotation
	lotDone                      // finalized (result or error set)
)

// lot is one admitted lot's full isolated state.
type lot struct {
	spec        LotSpec
	journalPath string
	// modelVersion pins the lot's calibration for life (0 = the base
	// model); eng is the engine built for that version. Bins are a pure
	// function of (lot seed, device index, model version).
	modelVersion int
	eng          *floor.Engine

	disp *netfloor.Dispatcher
	out  chan floor.DeviceResult
	// stopDrain checkpoints the lot during a graceful server drain (closed
	// only after the scheduler is quiesced); cancelCh aborts it (client
	// cancel or journal failure).
	stopDrain  chan struct{}
	cancelCh   chan struct{}
	cancelOnce sync.Once
	cancelErr  error
	// done closes when the lot is finalized; result/err are then readable.
	done   chan struct{}
	result *LotResult
	err    error

	journal  *lotrun.Journal
	wd       *lotrun.Watchdog
	wdNext   int // watchdog cursor: results below it have been observed
	results  []*floor.DeviceResult
	needed   int
	replayed int
	replay   lotrun.ReplayStats

	state lotState // guarded by Server.mu

	mu       sync.Mutex // guards everything below
	degraded bool       // journal failed persistently; lot runs journal-less
	jerr     error      // wraps lotrun.ErrJournalDegraded
	breakers map[int]*lotrun.Breaker
	started  map[int]time.Time
	commits  int
	assigns  int // remote assignment round-trips
	dups     int
	alarms   []lotrun.DriftAlarm
}

// breakerFor returns the lot's circuit breaker for one worker ordinal,
// creating it on first use. lotrun.Breaker is single-owner; all access
// goes through the lot mutex because Status() reads states cross-thread.
func (l *lot) breakerFor(ordinal int, cfg lotrun.BreakerConfig) *lotrun.Breaker {
	if l.breakers[ordinal] == nil {
		l.breakers[ordinal] = lotrun.NewBreaker(cfg)
	}
	return l.breakers[ordinal]
}

// chargeProbe runs the breaker's open → half-open transition for this
// worker if it is quarantined; the next device is the probe insertion.
func (l *lot) chargeProbe(ordinal int, cfg lotrun.BreakerConfig) {
	l.mu.Lock()
	br := l.breakerFor(ordinal, cfg)
	if br.Open() {
		br.BeginProbe()
	}
	l.mu.Unlock()
}

// recordBreaker folds one result into this worker's breaker for the lot.
func (l *lot) recordBreaker(ordinal int, cfg lotrun.BreakerConfig, res floor.DeviceResult) {
	l.mu.Lock()
	l.breakerFor(ordinal, cfg).Record(res)
	l.mu.Unlock()
}

// markAssigned stamps each device's first assignment time (the latency
// clock) and counts remote round-trips: a remote batch is one round-trip
// regardless of its size, which is exactly the economics batching buys.
func (l *lot) markAssigned(idxs []int, remote bool) {
	l.mu.Lock()
	for _, idx := range idxs {
		if _, ok := l.started[idx]; !ok {
			l.started[idx] = time.Now()
		}
	}
	if remote {
		l.assigns++
	}
	l.mu.Unlock()
}

func (l *lot) addDup() {
	l.mu.Lock()
	l.dups++
	l.mu.Unlock()
}

// setDegraded flips the lot into journal-less degraded mode; err wraps
// lotrun.ErrJournalDegraded.
func (l *lot) setDegraded(err error) {
	l.mu.Lock()
	l.degraded = true
	l.jerr = err
	l.mu.Unlock()
}

// degradedState reads the degraded flag and its error.
func (l *lot) degradedState() (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded, l.jerr
}

func (l *lot) cancel(err error) {
	l.cancelOnce.Do(func() {
		l.cancelErr = err
		close(l.cancelCh)
	})
}

// LotHandle is a submitted lot's future.
type LotHandle struct{ l *lot }

// ID names the lot.
func (h *LotHandle) ID() string { return h.l.spec.ID }

// Done closes when the lot finalizes (completed or aborted).
func (h *LotHandle) Done() <-chan struct{} { return h.l.done }

// Wait blocks for the lot's outcome. On abort the returned error wraps
// ErrAborted and the journal keeps the lot's progress for a resume.
func (h *LotHandle) Wait(ctx context.Context) (*LotResult, error) {
	select {
	case <-h.l.done:
		return h.l.result, h.l.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// siteStats is one remote site's connection history.
type siteStats struct {
	addr string

	mu         sync.Mutex
	settled    bool // the first connection attempt has resolved
	connected  bool
	assigns    int
	retries    int
	reassigns  int
	reconnects int
	dialFails  int
	drainFails int
	abandoned  string
	// models is every calibration version this site has screened under
	// (the base model, version 0, is implicit); modelSends counts artifact
	// deliveries in answer to the site's fetches.
	models     map[int]bool
	modelSends int
}

func (st *siteStats) update(f func(*siteStats)) {
	st.mu.Lock()
	f(st)
	st.mu.Unlock()
}

// Server is the multi-lot screening service.
type Server struct {
	opt   Options
	hello netfloor.Hello
	ctx   context.Context
	stop  context.CancelFunc
	start time.Time

	sched *scheduler
	lat   *latRing
	sites []*siteStats
	wg    sync.WaitGroup

	mu        sync.Mutex
	lots      map[string]*lot // admitted: admitting + queued + active
	queue     []*lot
	active    int
	draining  bool
	sheds     int // ErrSaturated rejections
	dupRejs   int // ErrDuplicateLot rejections
	drainRejs int // ErrDraining rejections
	lotsDone  int // lots finalized successfully
	lotsDeg   int // lots that degraded to journal-less mode
	devices   int // devices committed across all lots

	// Versioned-calibration state (Registry mode), guarded by romu. Lock
	// ordering: romu may be taken while holding no other server lock; the
	// registry's own mutex nests inside romu.
	romu      sync.Mutex
	engines   map[int]*floor.Engine // built versioned engines (never 0)
	payloads  map[int][]byte        // encoded artifacts for wire delivery
	shadow    *modelreg.ShadowScorer
	shadowQ   chan shadowItem
	drift     map[int]*driftCandidate // per incumbent version, see onDriftAlarm
	recals    int                     // candidates staged from drift alarms
	rollbacks int                     // automatic demotions
}

// shadowItem is one committed incumbent result queued for shadow scoring.
type shadowItem struct {
	seed int64
	res  floor.DeviceResult
}

// New validates the options, starts the site loops and local workers, and
// returns a serving Server. Pair with Shutdown (graceful) or Kill (hard).
func New(opt Options) (*Server, error) {
	if opt.Engine == nil {
		return nil, fmt.Errorf("lotserver: needs an engine")
	}
	if err := opt.Engine.Validate(); err != nil {
		return nil, err
	}
	if len(opt.Pool) == 0 {
		return nil, fmt.Errorf("lotserver: empty device pool")
	}
	if opt.Faults != nil {
		if err := opt.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	opt.defaults()
	if opt.JournalDir != "" {
		if err := opt.FS.MkdirAll(opt.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("lotserver: journal dir: %w", err)
		}
	}
	faultP := 0.0
	if opt.Faults != nil {
		faultP = opt.Faults.TotalP()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt: opt,
		hello: netfloor.Hello{
			Version:     netfloor.ProtocolVersion,
			Devices:     len(opt.Pool),
			FaultP:      faultP,
			Fingerprint: opt.Engine.Fingerprint(),
			MultiLot:    true,
		},
		ctx:      ctx,
		stop:     cancel,
		start:    time.Now(),
		sched:    &scheduler{},
		lat:      newLatRing(4096),
		lots:     make(map[string]*lot),
		engines:  make(map[int]*floor.Engine),
		payloads: make(map[int][]byte),
		drift:    make(map[int]*driftCandidate),
	}
	if opt.Registry != nil {
		s.shadowQ = make(chan shadowItem, 256)
		if err := s.resumeRollout(); err != nil {
			cancel()
			return nil, err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.shadowWorker()
		}()
	}
	for si, addr := range opt.Sites {
		st := &siteStats{addr: addr}
		s.sites = append(s.sites, st)
		s.wg.Add(1)
		go func(si int, addr string, st *siteStats) {
			defer s.wg.Done()
			s.siteLoop(si, addr, st)
		}(si, addr, st)
	}
	for w := 0; w < opt.LocalWorkers; w++ {
		ordinal := len(opt.Sites) + w
		s.wg.Add(1)
		go func(ordinal int) {
			defer s.wg.Done()
			s.localWorker(ordinal, false)
		}(ordinal)
	}
	if opt.LocalWorkers == 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.localWorker(len(opt.Sites), true)
		}()
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// pollInterval paces idle workers; short and fixed — an idle server
// spinning once a millisecond is cheaper than a lot waiting a heartbeat.
const pollInterval = time.Millisecond

// ValidLotID gates a lot identity. The ID becomes a journal filename
// (<ID>.journal), so its alphabet is restricted — no separators, no
// traversal.
func ValidLotID(id string) error {
	if id == "" || len(id) > 64 {
		return fmt.Errorf("lotserver: lot ID must be 1–64 characters")
	}
	for _, r := range id {
		ok := r == '.' || r == '_' || r == '-' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return fmt.Errorf("lotserver: lot ID %q: only [A-Za-z0-9._-] allowed", id)
		}
	}
	return nil
}

// validSpec gates the lot identity and its size against the pool.
func (s *Server) validSpec(spec LotSpec) error {
	if err := ValidLotID(spec.ID); err != nil {
		return err
	}
	if spec.Devices < 1 || spec.Devices > len(s.opt.Pool) {
		return fmt.Errorf("lotserver: lot of %d devices outside pool [1, %d]", spec.Devices, len(s.opt.Pool))
	}
	return nil
}

// Submit admits one lot. Admission is two-phase: reserve the ID and a
// capacity slot under the lock, then do the journal IO (create, or replay
// for a resume) unlocked, then finish admission — so a slow fsync never
// serializes the front door, and a duplicate ID is caught immediately.
// ctx is the client's interest: cancelling it aborts the lot (the journal
// keeps its progress).
func (s *Server) Submit(ctx context.Context, spec LotSpec) (*LotHandle, error) {
	if err := s.validSpec(spec); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	l := &lot{
		spec:      spec,
		out:       nil, // sized after replay
		stopDrain: make(chan struct{}),
		cancelCh:  make(chan struct{}),
		done:      make(chan struct{}),
		results:   make([]*floor.DeviceResult, spec.Devices),
		state:     lotAdmitting,
		breakers:  make(map[int]*lotrun.Breaker),
		started:   make(map[int]time.Time),
	}

	// Phase one: reserve.
	s.mu.Lock()
	if s.draining {
		s.drainRejs++
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if _, dup := s.lots[spec.ID]; dup {
		s.dupRejs++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateLot, spec.ID)
	}
	if active, queued := s.active, len(s.queue); active+queued >= s.opt.MaxActiveLots+s.opt.MaxQueuedLots {
		s.sheds++
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (%d active, %d queued)", ErrSaturated, active, queued)
	}
	s.lots[spec.ID] = l
	s.mu.Unlock()

	// Phase two: journal IO, unlocked.
	if err := s.openJournal(l); err != nil {
		s.mu.Lock()
		delete(s.lots, spec.ID)
		s.mu.Unlock()
		return nil, err
	}

	// Phase three: finish admission. The only thing that can have changed
	// is a drain starting mid-IO.
	s.mu.Lock()
	if s.draining {
		delete(s.lots, spec.ID)
		s.drainRejs++
		s.mu.Unlock()
		if l.journal != nil {
			l.journal.Close() // progress stays on disk for a resume
		}
		return nil, ErrDraining
	}
	if s.active < s.opt.MaxActiveLots {
		s.activateLocked(l)
	} else {
		l.state = lotQueued
		s.queue = append(s.queue, l)
	}
	s.mu.Unlock()

	// Client-cancel watcher: the submitting context's death aborts the lot.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case <-ctx.Done():
			s.cancelLot(l, fmt.Errorf("%w: client cancelled: %v", ErrAborted, ctx.Err()))
		case <-l.done:
		case <-s.ctx.Done():
		}
	}()

	s.logf("lot %s admitted: seed %d, %d devices (%d replayed)",
		spec.ID, spec.Seed, spec.Devices, l.replayed)
	return &LotHandle{l: l}, nil
}

// openJournal creates the lot's journal, or — when a journal for this ID
// already exists — replays it and resumes: committed devices are restored
// and only the remainder will be screened. Identity mismatches (same ID,
// different lot) are rejected rather than resumed.
func (s *Server) openJournal(l *lot) error {
	pending := make([]int, 0, l.spec.Devices)
	faultP := s.hello.FaultP
	if s.opt.JournalDir == "" {
		if err := s.pinLot(l, s.pinVersion(l.spec.ID)); err != nil {
			return err
		}
		for i := 0; i < l.spec.Devices; i++ {
			pending = append(pending, i)
		}
		l.disp = netfloor.NewDispatcher(pending, l.spec.Devices)
		l.out = make(chan floor.DeviceResult, l.spec.Devices)
		l.needed = len(pending)
		l.initWatchdog(s)
		return nil
	}
	l.journalPath = filepath.Join(s.opt.JournalDir, l.spec.ID+".journal")
	if _, err := s.opt.FS.Stat(l.journalPath); err == nil {
		hdr, done, validEnd, stats, err := lotrun.ReplayJournalFS(s.opt.FS, l.journalPath)
		if err != nil {
			return fmt.Errorf("lotserver: lot %s: %w", l.spec.ID, err)
		}
		if hdr.LotSeed != l.spec.Seed || hdr.Devices != l.spec.Devices || hdr.FaultP != faultP {
			return fmt.Errorf("lotserver: lot %s: journal is for a different lot (seed %d devices %d faultp %g; submitted seed %d devices %d faultp %g)",
				l.spec.ID, hdr.LotSeed, hdr.Devices, hdr.FaultP, l.spec.Seed, l.spec.Devices, faultP)
		}
		// The journal's model version is authoritative: the lot keeps the
		// calibration it started under, whatever rollout has happened since.
		if err := s.pinLot(l, hdr.ModelVersion); err != nil {
			return err
		}
		if hdr.Fingerprint != 0 && hdr.Fingerprint != l.eng.Fingerprint() {
			return fmt.Errorf("lotserver: lot %s: journal was written by a differently calibrated engine (fingerprint %016x, model v%d here hashes to %016x): %w",
				l.spec.ID, hdr.Fingerprint, l.modelVersion, l.eng.Fingerprint(), lotrun.ErrModelMismatch)
		}
		for i, res := range done {
			res := res
			l.results[i] = &res
		}
		l.replayed = stats.Records
		l.replay = stats
		if jr, rerr := lotrun.ResumeJournalFS(s.opt.FS, l.journalPath, validEnd); rerr != nil {
			// Replay restored every committed device; only the append
			// side is broken. Run the remainder degraded rather than
			// refuse the lot.
			s.degradeLot(l, rerr)
		} else {
			l.journal = jr
		}
	} else {
		if err := s.pinLot(l, s.pinVersion(l.spec.ID)); err != nil {
			return err
		}
		jr, err := lotrun.CreateJournalFS(s.opt.FS, l.journalPath, lotrun.JournalHeader{
			Type: "header", Version: lotrun.JournalVersion,
			LotSeed: l.spec.Seed, Devices: l.spec.Devices, FaultP: faultP,
			Fingerprint:  l.eng.Fingerprint(),
			ModelVersion: l.modelVersion,
		})
		if err != nil {
			// A journal that cannot even be created is the same storage
			// fault as one dying mid-lot: admit the lot in degraded
			// journal-less mode rather than reject it.
			s.degradeLot(l, err)
		} else {
			l.journal = jr
		}
	}
	for i := 0; i < l.spec.Devices; i++ {
		if l.results[i] == nil {
			pending = append(pending, i)
		}
	}
	l.disp = netfloor.NewDispatcher(pending, l.spec.Devices)
	l.out = make(chan floor.DeviceResult, l.spec.Devices)
	l.needed = len(pending)
	l.initWatchdog(s)
	return nil
}

// pinLot resolves and pins one calibration version for the lot's life.
func (s *Server) pinLot(l *lot, version int) error {
	eng, err := s.engineFor(version)
	if err != nil {
		return fmt.Errorf("lotserver: lot %s: %w", l.spec.ID, err)
	}
	l.modelVersion, l.eng = version, eng
	return nil
}

func (l *lot) initWatchdog(s *Server) {
	// The watchdog baselines against the pinned model's gate: drift is
	// measured relative to the calibration actually screening the lot.
	if l.eng.Gate != nil && !s.opt.Watchdog.Disabled {
		l.wd = lotrun.NewWatchdog(l.eng.Gate, s.opt.Watchdog)
	}
}

// activateLocked puts the lot into the scheduler rotation and starts its
// collector. Caller holds s.mu.
func (s *Server) activateLocked(l *lot) {
	l.state = lotActive
	s.active++
	s.sched.add(l)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runLot(l)
	}()
}

// runLot is the lot's collector: the single goroutine that commits
// results — journal, watchdog, latency — until the lot completes, is
// cancelled, or the server drains or dies. Exactly-once is already
// guaranteed upstream (Dispatcher.Complete), so everything read here
// commits.
func (s *Server) runLot(l *lot) {
	s.observeDrift(l) // replayed devices: the same stream as the uninterrupted lot
	received := 0
	for received < l.needed {
		select {
		case res := <-l.out:
			// A journal failure inside commit degrades the lot to
			// journal-less mode (typed, visible in the report and wire
			// summary); the lot itself keeps going — it no longer dies.
			s.commit(l, res)
			received++
		case <-l.cancelCh:
			// Client cancel (or deliberate abort): flush what workers
			// already delivered so the journal holds maximum progress,
			// then finalize as aborted.
			s.flush(l)
			s.finishLot(l, nil, l.cancelErr)
			return
		case <-l.stopDrain:
			// Staged server drain. The scheduler is paused and quiesced, so
			// every result is already buffered: flush, checkpoint, answer.
			s.flush(l)
			if l.remainingUncommitted() == 0 {
				break // drain raced completion; fall through to finalize
			}
			err := fmt.Errorf("%w: server draining (%d of %d devices committed)",
				ErrAborted, l.committedCount(), l.spec.Devices)
			if deg, jerr := l.degradedState(); deg {
				// The journal died before the drain could checkpoint this
				// lot: its progress is NOT on disk and a resubmit will
				// re-screen from scratch. The waiting client gets the
				// typed degradation instead of a silent partial drain.
				err = fmt.Errorf("%w: server draining at %d of %d devices with dead journal (%v): %w",
					ErrAborted, l.committedCount(), l.spec.Devices, jerr, lotrun.ErrJournalDegraded)
			}
			s.finishLot(l, nil, err)
			return
		case <-s.ctx.Done():
			// Hard stop (Kill): journals are fsync'd per record, so closing
			// without a flush models a crash — the resume path recovers.
			s.finishLot(l, nil, fmt.Errorf("%w: server stopped: %v", ErrAborted, s.ctx.Err()))
			return
		}
		if l.remainingUncommitted() == 0 {
			break
		}
	}
	s.finalize(l)
}

// flush commits every result already buffered in the lot's channel. A
// journal failure mid-flush degrades the lot (typed, surfaced to the
// waiting client by the drain path) and keeps folding the remaining
// results — buffered work is never silently dropped.
func (s *Server) flush(l *lot) {
	for {
		select {
		case res := <-l.out:
			s.commit(l, res)
		default:
			return
		}
	}
}

func (l *lot) committedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commits + l.replayed
}

func (l *lot) remainingUncommitted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spec.Devices - l.replayed - l.commits
}

// degradeLot flips one lot into journal-less degraded mode: its journal
// (if any) is closed, the typed error recorded, and the server-wide
// counter bumped. The lot keeps screening — bins stay a pure function of
// (seed, index, version) — but crash-resume is disabled.
func (s *Server) degradeLot(l *lot, cause error) {
	if l.journal != nil {
		l.journal.Close()
		l.journal = nil
	}
	l.setDegraded(fmt.Errorf("%w: %v", lotrun.ErrJournalDegraded, cause))
	s.mu.Lock()
	s.lotsDeg++
	s.mu.Unlock()
	s.logf("lot %s: journal degraded, continuing journal-less: %v", l.spec.ID, cause)
}

// commit journals one result and folds it into the lot's running state.
// Runs only on the lot's collector goroutine. A persistent journal
// failure (after bounded retry) degrades the lot to journal-less mode
// instead of failing the commit — the result is always folded.
func (s *Server) commit(l *lot, res floor.DeviceResult) {
	if l.journal != nil {
		if err := l.journal.CommitRetry(res, s.opt.JournalRetry); err != nil {
			s.degradeLot(l, err)
		}
	}
	r := res
	l.results[res.Index] = &r
	l.mu.Lock()
	l.commits++
	startAt := l.started[res.Index]
	l.mu.Unlock()
	if !startAt.IsZero() {
		s.lat.add(float64(time.Since(startAt)) / float64(time.Millisecond))
	}
	s.mu.Lock()
	s.devices++
	s.mu.Unlock()
	s.observeDrift(l)
	s.feedShadow(l, res)
}

// observeDrift advances the lot's watchdog cursor over the unbroken
// prefix of committed (or replayed) results, feeding accepted-capture
// distances in device-index order. A lot's alarms are therefore a pure
// function of (lot seed, pool, model version): worker count, batch size,
// delivery order and crash/resume history cannot move them. Runs only on
// the lot's collector goroutine.
func (s *Server) observeDrift(l *lot) {
	if l.wd == nil {
		return
	}
	for ; l.wdNext < len(l.results) && l.results[l.wdNext] != nil; l.wdNext++ {
		r := l.results[l.wdNext]
		if r.CleanD < 0 {
			continue
		}
		alarm := l.wd.Observe(r.Index, r.CleanD)
		if alarm == nil {
			continue
		}
		l.mu.Lock()
		l.alarms = append(l.alarms, *alarm)
		l.mu.Unlock()
		s.logf("lot %s: drift alarm (%s) at device %d", l.spec.ID, alarm.Detector, alarm.Device)
		if s.opt.OnDrift != nil {
			s.opt.OnDrift(l.spec.ID, *alarm)
		}
		s.onDriftAlarm(l, *alarm)
	}
}

// finalize builds the completed lot's report — folding results in index
// order, so bins are independent of which worker screened what, in what
// order, interleaved with whichever other lots.
func (s *Server) finalize(l *lot) {
	rep := l.eng.NewReport(l.spec.Devices)
	for i := 0; i < l.spec.Devices; i++ {
		r := l.results[i]
		if r == nil {
			s.finishLot(l, nil, fmt.Errorf("%w: device %d was never screened", ErrAborted, i))
			return
		}
		rep.Fold(*r)
	}
	deg, jerr := l.degradedState()
	if l.journal != nil || deg {
		rep.Load.JournalS = float64(l.spec.Devices) * s.opt.JournalSyncS
	}
	if deg {
		rep.JournalDegraded = true
		rep.JournalErr = jerr.Error()
	}
	l.mu.Lock()
	assigns, dups := l.assigns, l.dups
	alarms := append([]lotrun.DriftAlarm(nil), l.alarms...)
	var trips []lotrun.TripEvent
	for _, br := range l.breakers {
		rep.Load.QuarantineS += br.QuarantineTotalS()
		trips = append(trips, br.Events()...)
	}
	l.mu.Unlock()
	sort.Slice(trips, func(i, j int) bool { return trips[i].AfterDevice < trips[j].AfterDevice })
	rep.Load.NetworkS = float64(assigns) * s.opt.ModelRTTS
	if err := l.eng.Finish(rep); err != nil {
		s.finishLot(l, nil, fmt.Errorf("%w: %v", ErrAborted, err))
		return
	}
	result := &LotResult{
		Spec: l.spec, Report: rep, Trips: trips, Alarms: alarms,
		Replayed: l.replayed, Replay: l.replay, Assigns: assigns, Dups: dups,
	}
	if deg {
		result.JournalDegraded = true
		result.JournalErr = jerr.Error()
	}
	s.finishLot(l, result, nil)
}

// finishLot closes the journal, retires the lot's slot (promoting a
// queued lot if one is waiting), and wakes every waiter.
func (s *Server) finishLot(l *lot, result *LotResult, err error) {
	if l.journal != nil {
		l.journal.Close()
	}
	l.result, l.err = result, err
	s.mu.Lock()
	wasActive := l.state == lotActive
	l.state = lotDone
	delete(s.lots, l.spec.ID)
	if wasActive {
		s.active--
		s.sched.remove(l)
		if !s.draining && len(s.queue) > 0 && s.active < s.opt.MaxActiveLots {
			next := s.queue[0]
			s.queue = s.queue[1:]
			s.activateLocked(next)
		}
	}
	if err == nil {
		s.lotsDone++
	}
	s.mu.Unlock()
	close(l.done)
	if err != nil {
		s.logf("lot %s: %v", l.spec.ID, err)
	} else if result != nil && result.JournalDegraded {
		s.logf("lot %s: complete in DEGRADED journal-less mode (%d devices, %d replayed): %s",
			l.spec.ID, l.spec.Devices, l.replayed, result.JournalErr)
	} else {
		s.logf("lot %s: complete (%d devices, %d replayed)", l.spec.ID, l.spec.Devices, l.replayed)
	}
}

// cancelLot aborts one lot without touching any other: an active lot's
// collector flushes and checkpoints, a queued lot is simply withdrawn.
func (s *Server) cancelLot(l *lot, reason error) {
	s.mu.Lock()
	switch l.state {
	case lotDone:
		s.mu.Unlock()
		return
	case lotQueued:
		for i, x := range s.queue {
			if x == l {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		l.state = lotDone
		delete(s.lots, l.spec.ID)
		s.mu.Unlock()
		if l.journal != nil {
			l.journal.Close()
		}
		l.err = reason
		close(l.done)
		s.logf("lot %s: %v", l.spec.ID, reason)
		return
	default: // active (or still admitting): the collector owns the teardown
		s.mu.Unlock()
		l.cancel(reason)
	}
}

// lookupLot resolves a lot ID to its live lot (nil when unknown or
// already finalized) — the router for stray multi-lot results.
func (s *Server) lookupLot(id string) *lot {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.lots[id]
	if l == nil || l.state != lotActive {
		return nil
	}
	return l
}

// deliver routes one screened result through the lot's exactly-once gate.
func (s *Server) deliver(l *lot, res floor.DeviceResult, ordinal int) bool {
	if !l.disp.Complete(res.Index) {
		l.addDup()
		return false
	}
	res.Site = ordinal
	l.out <- res // buffered to lot size: never blocks
	return true
}

// runHook runs the chaos-test hook for one (lot, device) and recovers a
// panic from it; false means the hook panicked and the device must be
// requeued rather than screened.
func (s *Server) runHook(l *lot, idx int) (ok bool) {
	if s.opt.Hook == nil {
		return true
	}
	defer func() {
		if r := recover(); r != nil {
			s.logf("lot %s: hook panic at device %d (device requeued): %v", l.spec.ID, idx, r)
			ok = false
		}
	}()
	s.opt.Hook(l.spec.ID, idx)
	return true
}

// localWorker screens batches on the server itself, pulling fairly
// across lots exactly like a remote site does. A fallback worker screens
// only while fallbackOpen says every remote site is down. Local workers
// never hedge: on one host a hedge is the same CPU screening the same
// device twice, and a local worker cannot go silent the way a site can.
func (s *Server) localWorker(ordinal int, fallback bool) {
	var downSince time.Time
	for {
		if s.ctx.Err() != nil {
			return
		}
		if fallback && !s.fallbackOpen(&downSince) {
			select {
			case <-s.ctx.Done():
				return
			case <-time.After(s.opt.HeartbeatInterval):
			}
			continue
		}
		l, idxs, ok := s.sched.next(s.opt.Batch, false)
		if !ok {
			select {
			case <-s.ctx.Done():
				return
			case <-time.After(pollInterval):
			}
			continue
		}
		if !s.screenLocalBatch(ordinal, l, idxs) {
			return
		}
	}
}

// fallbackOpen reports whether the remote-less fallback may screen: every
// site has resolved its first connection attempt, none is connected, and
// that has held for a whole IdleTimeout — the threshold that declares one
// connection dead — so a site mid-reconnect does not pull work local.
func (s *Server) fallbackOpen(downSince *time.Time) bool {
	for _, st := range s.sites {
		st.mu.Lock()
		up := st.connected || !st.settled
		st.mu.Unlock()
		if up {
			*downSince = time.Time{}
			return false
		}
	}
	if downSince.IsZero() {
		*downSince = time.Now()
	}
	return time.Since(*downSince) >= s.opt.IdleTimeout
}

// screenLocalBatch screens one scheduler pull through the batched kernel
// on the server itself; false means the server is shutting down and the
// worker should exit.
func (s *Server) screenLocalBatch(ordinal int, l *lot, idxs []int) bool {
	l.markAssigned(idxs, false)
	if s.opt.Hook != nil {
		// Run the chaos hook per device before the batch forms; a panicked
		// device is requeued untouched and drops out of this batch.
		kept := idxs[:0]
		for _, idx := range idxs {
			if s.runHook(l, idx) {
				kept = append(kept, idx)
			} else {
				l.disp.Release(idx)
				s.sched.done(1)
			}
		}
		idxs = kept
		if len(idxs) == 0 {
			return true
		}
	}
	l.chargeProbe(ordinal, s.opt.Breaker)
	batch := make([]floor.BatchDevice, len(idxs))
	for i, idx := range idxs {
		batch[i] = floor.BatchDevice{Index: idx, Device: s.opt.Pool[idx], Seed: core.DeviceSeed(l.spec.Seed, idx)}
	}
	results := netfloor.ScreenBatchSupervised(s.ctx, l.eng, batch, s.opt.Faults, s.opt.DeviceTimeout)
	alive := true
	for _, res := range results {
		if res.Err != "" && s.ctx.Err() != nil {
			l.disp.Release(res.Index) // truncated by shutdown: never commit
			alive = false
			continue
		}
		l.recordBreaker(ordinal, s.opt.Breaker, res)
		s.deliver(l, res, ordinal)
		l.disp.Release(res.Index)
	}
	s.sched.done(len(idxs))
	return alive
}

var (
	errOverdue     = errors.New("lotserver: assignment overdue")
	errConnDead    = errors.New("lotserver: connection dead")
	errSiteDrained = errors.New("lotserver: site announced drain")
)

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// siteLoop owns one remote site for the server's lifetime: connect with a
// multi-lot handshake, serve assignments from the fair scheduler,
// reconnect with jittered backoff on any failure.
func (s *Server) siteLoop(si int, addr string, st *siteStats) {
	jitter := rand.New(rand.NewSource(parallel.SubSeed(s.opt.NetSeed, si)))
	attempt := 0
	connected := false
	for {
		if s.ctx.Err() != nil {
			return
		}
		mc, siteBatch, err := s.connect(addr)
		st.update(func(st *siteStats) { st.settled = true })
		if err != nil {
			if s.ctx.Err() != nil {
				return
			}
			var perm *permanentError
			if errors.As(err, &perm) {
				st.update(func(st *siteStats) { st.abandoned = perm.msg })
				s.logf("site %d (%s): abandoned: %s", si, addr, perm.msg)
				return
			}
			st.update(func(st *siteStats) { st.dialFails++ })
			attempt++
			if !s.backoffSleep(jitter, attempt) {
				return
			}
			continue
		}
		if connected {
			st.update(func(st *siteStats) { st.reconnects++ })
		}
		connected = true
		attempt = 0
		st.update(func(st *siteStats) { st.connected = true })
		err = s.serveSite(si, st, mc, min(s.opt.Batch, siteBatch))
		st.update(func(st *siteStats) { st.connected = false })
		mc.Close()
		if s.ctx.Err() != nil {
			return
		}
		s.logf("site %d (%s): connection lost (%v), reconnecting", si, addr, err)
		attempt++
		if !s.backoffSleep(jitter, attempt) {
			return
		}
	}
}

func (s *Server) backoffSleep(jitter *rand.Rand, attempt int) bool {
	d := float64(s.opt.RetryBase)
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= float64(s.opt.RetryMax) {
			d = float64(s.opt.RetryMax)
			break
		}
	}
	d *= 1 + 0.5*jitter.Float64()
	select {
	case <-time.After(time.Duration(d)):
		return true
	case <-s.ctx.Done():
		return false
	}
}

// permanentError marks a site that must not be redialed (identity
// mismatch: its engine would bin differently).
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// connect dials and handshakes one site in multi-lot mode. The second
// return is the site's advertised batch capability (at least 1).
func (s *Server) connect(addr string) (*netfloor.MsgConn, int, error) {
	dctx, cancel := context.WithTimeout(s.ctx, s.opt.RequestTimeout)
	defer cancel()
	conn, err := s.opt.Dialer(dctx, addr)
	if err != nil {
		return nil, 0, err
	}
	mc := netfloor.NewMsgConn(conn)
	hello := s.hello
	if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgHello, Hello: &hello}, s.opt.IdleTimeout); err != nil {
		mc.Close()
		return nil, 0, err
	}
	env, err := mc.Read(s.opt.IdleTimeout)
	if err != nil {
		mc.Close()
		return nil, 0, err
	}
	switch env.Type {
	case netfloor.MsgHelloAck:
		if env.Hello == nil || *env.Hello != hello {
			mc.Close()
			return nil, 0, &permanentError{msg: fmt.Sprintf("site %s acked a different identity", addr)}
		}
		return mc, max(env.Batch, 1), nil
	case netfloor.MsgError:
		mc.Close()
		return nil, 0, &permanentError{msg: env.Err}
	default:
		mc.Close()
		return nil, 0, fmt.Errorf("lotserver: handshake: expected hello_ack, got %s", env.Type)
	}
}

// serveSite drives one healthy connection: pull same-lot batches of up
// to kBatch devices from the fair scheduler (hedging stragglers once every
// fresh queue is dry), assign, await. kBatch is the negotiated assignment
// size: the minimum of Options.Batch and the site's advertised MaxBatch.
// Stray results — from overdue retries or other lots' earlier
// assignments — are routed to their lots by ID.
func (s *Server) serveSite(si int, st *siteStats, mc *netfloor.MsgConn, kBatch int) error {
	var seq uint64
	lastHeard := time.Now()
	lastBeat := time.Now()
	for {
		if s.ctx.Err() != nil {
			s.drainConn(si, st, mc)
			return s.ctx.Err()
		}
		l, idxs, ok := s.sched.next(kBatch, true)
		if !ok {
			// Idle: beacon, and keep reading (draining the site's own
			// heartbeats; with a synchronous in-memory transport an unread
			// beacon would block the site).
			if time.Since(lastBeat) >= s.opt.HeartbeatInterval {
				if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgHeartbeat}, s.opt.HeartbeatInterval); err != nil {
					return err
				}
				lastBeat = time.Now()
			}
			env, err := mc.Read(s.opt.HeartbeatInterval)
			if err != nil {
				if isTimeout(err) {
					if time.Since(lastHeard) > s.opt.IdleTimeout {
						return errConnDead
					}
					continue
				}
				return err
			}
			lastHeard = time.Now()
			if env.Type == netfloor.MsgDrain {
				return errSiteDrained
			}
			if env.Type == netfloor.MsgModelReq {
				if err := s.answerModelReq(st, mc, env.Model); err != nil {
					return err
				}
				continue
			}
			s.routeStray(si, env)
			continue
		}

		seq++
		l.markAssigned(idxs, true)
		l.chargeProbe(siteOrdinal(si), s.opt.Breaker)
		st.update(func(st *siteStats) {
			st.assigns++
			if l.modelVersion != 0 {
				if st.models == nil {
					st.models = make(map[int]bool)
				}
				st.models[l.modelVersion] = true
			}
		})
		err := s.assignAwait(si, st, mc, l, idxs, seq, &lastHeard)
		requeued := false
		for _, idx := range idxs {
			if l.disp.Release(idx) {
				requeued = true
			}
		}
		s.sched.done(len(idxs))
		if err == nil {
			continue
		}
		st.update(func(st *siteStats) {
			st.retries++
			if requeued {
				st.reassigns++
			}
		})
		if errors.Is(err, errOverdue) {
			// Connection alive but a result never came (dropped frame):
			// retry on the same connection; the site's cache makes the
			// re-screen free for the devices that already screened.
			continue
		}
		return err
	}
}

// siteOrdinal is the worker ordinal of remote site si (locals follow).
func siteOrdinal(si int) int { return si }

// assignAwait sends one assignment — a batch of indices from the same
// lot — and waits until each device's result has arrived, absorbing
// heartbeats and routing stray results meanwhile. The site echoes the
// frame's Seq on every result of the batch, and the wait budget is
// RequestTimeout per device.
func (s *Server) assignAwait(si int, st *siteStats, mc *netfloor.MsgConn,
	l *lot, idxs []int, seq uint64, lastHeard *time.Time) error {

	assign := &netfloor.Envelope{
		Type: netfloor.MsgAssign, Seq: seq,
		Devices: idxs,
		Seed:    l.spec.Seed, Lot: l.spec.ID,
	}
	if l.modelVersion != 0 {
		assign.Model = l.modelVersion
		assign.ModelFP = l.eng.Fingerprint()
	}
	if err := mc.Write(assign, s.opt.IdleTimeout); err != nil {
		return err
	}
	pending := make(map[int]bool, len(idxs))
	for _, idx := range idxs {
		pending[idx] = true
	}
	deadline := time.Now().Add(time.Duration(len(idxs)) * s.opt.RequestTimeout)
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			return errOverdue
		}
		if s.ctx.Err() != nil {
			return errOverdue
		}
		env, err := mc.Read(s.opt.HeartbeatInterval)
		if err != nil {
			if isTimeout(err) {
				if time.Since(*lastHeard) > s.opt.IdleTimeout {
					return errConnDead
				}
				continue
			}
			return err
		}
		*lastHeard = time.Now()
		switch env.Type {
		case netfloor.MsgHeartbeat:
		case netfloor.MsgResult:
			if env.Result == nil {
				continue
			}
			if env.Lot == l.spec.ID && env.Seq == seq && pending[env.Device] {
				l.recordBreaker(siteOrdinal(si), s.opt.Breaker, *env.Result)
				s.deliver(l, *env.Result, siteOrdinal(si))
				delete(pending, env.Device)
				continue
			}
			s.routeStray(si, env)
		case netfloor.MsgModelReq:
			if err := s.answerModelReq(st, mc, env.Model); err != nil {
				return err
			}
		case netfloor.MsgError:
			if env.Seq == seq {
				if env.Code == netfloor.CodeModelMismatch {
					return fmt.Errorf("lotserver: site cannot build model v%d for lot %s: %s: %w",
						l.modelVersion, l.spec.ID, env.Err, netfloor.ErrModelMismatch)
				}
				return fmt.Errorf("lotserver: site rejected batch of lot %s: %s", l.spec.ID, env.Err)
			}
		case netfloor.MsgDrain:
			// Site-initiated graceful shutdown with our assignment in
			// flight: give it up; the caller releases and the undone
			// indices are requeued for another worker.
			return errSiteDrained
		}
	}
	return nil
}

// routeStray commits a result that arrived outside its request window —
// an overdue retry's first answer, or a duplicated frame — to whichever
// lot it belongs to. A result for a finalized or cancelled lot is
// dropped; screening is pure, so nothing is lost.
func (s *Server) routeStray(si int, env *netfloor.Envelope) {
	if env.Type != netfloor.MsgResult || env.Result == nil || env.Lot == "" {
		return
	}
	l := s.lookupLot(env.Lot)
	if l == nil || l.spec.Seed != env.Seed {
		return
	}
	l.recordBreaker(siteOrdinal(si), s.opt.Breaker, *env.Result)
	s.deliver(l, *env.Result, siteOrdinal(si))
}

// drainConn sends the end-of-service courtesy drain to a site.
func (s *Server) drainConn(si int, st *siteStats, mc *netfloor.MsgConn) {
	if err := mc.Write(&netfloor.Envelope{Type: netfloor.MsgDrain}, s.opt.HeartbeatInterval); err != nil {
		st.update(func(st *siteStats) { st.drainFails++ })
		s.logf("site %d: drain send failed: %v", si, err)
	}
}

// Shutdown is the staged graceful drain:
//
//  1. stop admitting (Submit answers ErrDraining; queued lots are
//     withdrawn — their journals keep any resumed progress);
//  2. pause the scheduler and wait for every in-flight device to finish;
//  3. checkpoint: each active lot's collector flushes all buffered
//     results into its fsync'd journal;
//  4. answer clients (completed lots deliver results, interrupted ones
//     ErrAborted/draining) and stop the site loops and workers.
//
// ctx bounds the wait for in-flight devices; on expiry the drain degrades
// to a hard stop (journals are fsync'd per record, so nothing committed
// is lost either way).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.ctx.Done()
		s.wg.Wait()
		return nil
	}
	s.draining = true
	queued := s.queue
	s.queue = nil
	s.mu.Unlock()
	s.logf("draining: admission closed, %d queued lots withdrawn", len(queued))

	for _, l := range queued {
		s.withdrawQueued(l)
	}

	s.sched.pause()
	deadlineErr := error(nil)
	for s.sched.inflightCount() > 0 {
		select {
		case <-ctx.Done():
			deadlineErr = ctx.Err()
		case <-time.After(pollInterval):
		}
		if deadlineErr != nil {
			break
		}
	}

	s.mu.Lock()
	var actives []*lot
	for _, l := range s.lots {
		if l.state == lotActive {
			actives = append(actives, l)
		}
	}
	s.mu.Unlock()
	for _, l := range actives {
		close(l.stopDrain)
	}
	for _, l := range actives {
		<-l.done
	}

	s.stop()
	s.wg.Wait()
	s.logf("drained: %d active lots checkpointed", len(actives))
	return deadlineErr
}

// withdrawQueued finalizes a queued lot as draining-rejected.
func (s *Server) withdrawQueued(l *lot) {
	s.mu.Lock()
	if l.state != lotQueued {
		s.mu.Unlock()
		return
	}
	l.state = lotDone
	delete(s.lots, l.spec.ID)
	s.mu.Unlock()
	if l.journal != nil {
		l.journal.Close()
	}
	l.err = fmt.Errorf("%w: %v", ErrAborted, ErrDraining)
	close(l.done)
}

// Kill stops the server immediately — no drain, no checkpoint flush —
// modeling a crash as closely as a clean process allows. Journals are
// fsync'd per record, so every committed device survives; Submit the same
// specs to a new server on the same JournalDir to resume.
func (s *Server) Kill() {
	s.stop()
	s.wg.Wait()
}
