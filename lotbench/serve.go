package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/diskfault"
	"repro/internal/floor"
	"repro/internal/lotrun"
	"repro/internal/lotserver"
	"repro/internal/modelreg"
	"repro/internal/netfloor"
	"repro/internal/rig"
)

// rigParams is what `lotserverd -quick -produce 256` builds: the lna DUT
// at the default seed, fault probability and worker count.
func rigParams() rig.Params {
	return rig.Params{
		DUT: "lna", Seed: 1, Produce: poolSize, Quick: true,
		FaultP: 0.10, Workers: runtime.GOMAXPROCS(0),
	}
}

// driftAlarms counts every drift alarm any server raised.
var driftAlarms atomic.Int64

// served is one running lot server with its client listener.
type served struct {
	srv  *lotserver.Server
	ln   net.Listener
	dir  string
	done chan error
	// shadow is set when a candidate may be in shadow on this server.
	shadow bool
}

// serverShape is what differs between the servers a run starts.
type serverShape struct {
	// registry opens an on-disk model registry, and with it lotserverd's
	// drift response (see startServer).
	registry bool
	// shadow bounds shadow scoring so that no verdict ever fires; it
	// needs the registry.
	shadow bool
	// tr installs the tracing seams, Options.Hook and Options.FS.
	tr *tracer
	// sites replaces the local workers with these remote sites, dialed
	// through dialer.
	sites  []string
	dialer netfloor.Dialer
}

// startServer starts a server with the Options `lotserverd -quick
// -produce 256 -batch 16 -local 2 -max-queued 32 -journal DIR` builds,
// listening on loopback TCP, with logging off. With sh.registry it adds
// what `-registry DIR` adds: the registry, and lotserverd's drift
// response, which refits the calibration on the rig's training set in
// the background after a drift alarm and stages it as a candidate. On
// this rig the watchdog alarms several times per 128-device lot, so with
// the registry a core.Calibrate runs nearly back to back next to the
// floor.
func startServer(r *rig.Rig, dir string, sh serverShape) (*served, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := rigParams()
	opt := lotserver.Options{
		// The journal retry, heartbeat and canary flags' defaults are the
		// Options defaults.
		Engine: r.Engine, Pool: r.Lot, Faults: r.Faults,
		JournalDir:    filepath.Join(dir, "journal"),
		Sites:         sh.sites,
		Dialer:        sh.dialer,
		LocalWorkers:  2,
		MaxQueuedLots: 32,
		NetSeed:       p.Seed,
		Batch:         16,
		OnDrift:       func(string, lotrun.DriftAlarm) { driftAlarms.Add(1) },
	}
	if sh.sites != nil {
		opt.LocalWorkers = 0
	}
	if sh.registry {
		reg, err := modelreg.Open(filepath.Join(dir, "registry"))
		if err != nil {
			return nil, err
		}
		opt.Registry = reg
		opt.Recalibrate = func(_ string, a lotrun.DriftAlarm) (*core.Calibration, *floor.Gate, error) {
			rng := rand.New(rand.NewSource(p.Seed + int64(a.Device) + 1))
			cal, err := core.Calibrate(rng, r.Stim, r.Train, core.CalibrationOptions{Workers: p.Workers})
			if err != nil {
				return nil, nil, err
			}
			return cal, r.Gate, nil
		}
	}
	if sh.shadow {
		opt.ShadowBounds = modelreg.Bounds{MinSamples: 1 << 30}
	}
	if sh.tr != nil {
		opt.Hook = sh.tr.hook
		opt.FS = &traceFS{FS: diskfault.OS, t: sh.tr}
	}
	srv, err := lotserver.New(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		return nil, err
	}
	s := &served{srv: srv, ln: ln, dir: dir, done: make(chan error, 1), shadow: sh.shadow}
	go func() { s.done <- srv.ServeClients(ln) }()
	return s, nil
}

// sites is a set of in-process remote tester sites.
type sites struct {
	addrs  []string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startSites starts n remote sites on loopback TCP, built from the same
// rig as the server.
func startSites(r *rig.Rig, n int) (*sites, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ss := &sites{cancel: cancel}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ss.stop()
			return nil, err
		}
		site := &netfloor.Site{
			Engine: r.Engine, Lot: r.Lot, Faults: r.Faults,
			MaxBatch: 16, HeartbeatInterval: time.Second,
		}
		ss.wg.Add(1)
		go func() {
			defer ss.wg.Done()
			site.Serve(ctx, ln)
		}()
		ss.addrs = append(ss.addrs, ln.Addr().String())
	}
	return ss, nil
}

func (ss *sites) stop() {
	ss.cancel()
	ss.wg.Wait()
}

// stop kills the server and waits for every goroutine it started.
func (s *served) stop() {
	s.srv.Kill()
	<-s.done
}

// outcome is one lot's fate as the client saw it.
type outcome struct {
	req lotReq
	// lat is due → summary received (open loop) or send → summary
	// received (closed loop).
	lat time.Duration
	// done is when the summary (or the error) arrived.
	done time.Time
	sum  *lotserver.LotSummary
	kind string // ok, saturated, rejected, aborted, wrong_count, error
	err  error
}

func classify(req lotReq, sum *lotserver.LotSummary, err error) string {
	var rej *lotserver.RejectionError
	switch {
	case err == nil && sum != nil:
		if sum.Devices != req.devices || sum.Pass+sum.Fail+sum.Fallback != req.devices {
			return "wrong_count"
		}
		return "ok"
	case errors.As(err, &rej) && rej.Code == lotserver.CodeSaturated:
		return "saturated"
	case errors.As(err, &rej):
		return "rejected"
	case errors.Is(err, lotserver.ErrAborted):
		return "aborted"
	default:
		return "error"
	}
}

// runLot submits one lot on the shared client connection and waits for
// its summary.
func runLot(cl *lotserver.Client, req lotReq) (*lotserver.LotSummary, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return cl.Run(ctx, lotserver.LotSpec{ID: req.id, Seed: req.seed, Devices: req.devices})
}

// phaseStats counts a phase's lots by fate.
type phaseStats struct {
	name                      string
	attempted, completed      int
	saturated, rejected       int
	aborted, wrongCount, errs int
	firstErr                  error
}

func (p phaseStats) failed() int {
	return p.attempted - p.completed
}

func (p phaseStats) String() string {
	line := fmt.Sprintf("%s: lots attempted %d, completed %d, rejected %d (saturated %d, other %d), aborted %d, wrong count %d, other errors %d",
		p.name, p.attempted, p.completed, p.saturated+p.rejected, p.saturated, p.rejected,
		p.aborted, p.wrongCount, p.errs)
	if p.firstErr != nil {
		line += fmt.Sprintf(" (first error: %v)", p.firstErr)
	}
	return line
}

func tally(name string, outs []outcome) phaseStats {
	p := phaseStats{name: name, attempted: len(outs)}
	for _, o := range outs {
		if p.firstErr == nil && o.err != nil {
			p.firstErr = o.err
		}
		switch o.kind {
		case "ok":
			p.completed++
		case "saturated":
			p.saturated++
		case "rejected":
			p.rejected++
		case "aborted":
			p.aborted++
		case "wrong_count":
			p.wrongCount++
		default:
			p.errs++
		}
	}
	return p
}

// closedResult is a closed phase's outcome.
type closedResult struct {
	// from and to bound the measured window, after the warm-up.
	from, to time.Time
	outs     []outcome
}

// runClosed keeps `outstanding` lots in flight on the one connection for
// warm+window. It returns once every lot it sent has finished.
func runClosed(cl *lotserver.Client, next func() lotReq, outstanding int, warm, window time.Duration) closedResult {
	var (
		mu   sync.Mutex
		outs []outcome
		stop = make(chan struct{})
		wg   sync.WaitGroup
	)
	for i := 0; i < outstanding; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				req := next()
				mu.Unlock()
				t0 := time.Now()
				sum, err := runLot(cl, req)
				at := time.Now()
				o := outcome{req: req, lat: at.Sub(t0), done: at, sum: sum, err: err, kind: classify(req, sum, err)}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	time.Sleep(warm)
	res := closedResult{from: time.Now()}
	time.Sleep(window)
	res.to = time.Now()
	close(stop)
	wg.Wait()
	res.outs = outs
	return res
}

// openResult is one open-loop phase's outcome.
type openResult struct {
	outs    []outcome
	lags    []float64 // generator lateness per lot, ms
	elapsed time.Duration
}

// runOpen submits every lot at its due time, each on its own goroutine
// over the one client connection, and times each lot from when it was
// due until its summary arrives. A non-nil tracer records each lot's
// send and summary.
func runOpen(cl *lotserver.Client, reqs []lotReq, tr *tracer) openResult {
	res := openResult{outs: make([]outcome, len(reqs)), lags: make([]float64, len(reqs))}
	var wg sync.WaitGroup
	start := time.Now()
	for i, req := range reqs {
		due := start.Add(req.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lags[i] = ms(time.Since(due))
		if tr != nil {
			tr.sent(req, due)
		}
		wg.Add(1)
		go func(i int, req lotReq, due time.Time) {
			defer wg.Done()
			sum, err := runLot(cl, req)
			at := time.Now()
			if tr != nil {
				tr.finished(req.id, at)
			}
			res.outs[i] = outcome{req: req, lat: at.Sub(due), done: at, sum: sum, err: err, kind: classify(req, sum, err)}
		}(i, req, due)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// waitShadow waits until the shadow queue has drained — every committed
// device scored or shed — sampling RolloutStatus on a slow ticker so the
// wait costs no CPU.
func waitShadow(s *served, limit time.Duration) error {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	deadline := time.Now().Add(limit)
	for {
		committed := s.srv.Status().DevicesCommitted
		if sh := s.srv.RolloutStatus().Shadow; sh != nil && sh.Scored+sh.Dropped >= committed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shadow queue not drained after %v", limit)
		}
		<-t.C
	}
}

// checkBins replays a seeded sample of completed lots from their journals
// and compares every bin, and the lot summary's bin counts, with a serial
// floor.Engine.ScreenDevice reference. It returns how many sampled lots
// mismatched and how many devices were checked.
func checkBins(r *rig.Rig, journalDir string, outs []outcome, n int, seed int64) (bad, devices int, err error) {
	var ok []outcome
	for _, o := range outs {
		if o.kind == "ok" {
			ok = append(ok, o)
		}
	}
	if len(ok) == 0 {
		return 0, 0, fmt.Errorf("no completed lot to check")
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ok), func(i, j int) { ok[i], ok[j] = ok[j], ok[i] })
	if n > len(ok) {
		n = len(ok)
	}
	for _, o := range ok[:n] {
		mismatch, err := checkLot(r, journalDir, o)
		if err != nil {
			return bad, devices, err
		}
		devices += o.req.devices
		if mismatch != "" {
			bad++
			fmt.Printf("check: lot %s: %s\n", o.req.id, mismatch)
		}
	}
	return bad, devices, nil
}

func checkLot(r *rig.Rig, journalDir string, o outcome) (string, error) {
	hdr, done, _, _, err := lotrun.ReplayJournal(filepath.Join(journalDir, o.req.id+".journal"))
	if err != nil {
		return "", err
	}
	if hdr.LotSeed != o.req.seed || hdr.Devices != o.req.devices || len(done) != o.req.devices {
		return fmt.Sprintf("journal holds seed %d, %d of %d devices; want seed %d, %d devices",
			hdr.LotSeed, len(done), hdr.Devices, o.req.seed, o.req.devices), nil
	}
	ref := make([]floor.DeviceResult, o.req.devices)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ref); i += workers {
				ref[i] = r.Engine.ScreenDevice(context.Background(), i, r.Lot[i],
					core.DeviceSeed(o.req.seed, i), r.Faults)
			}
		}(w)
	}
	wg.Wait()
	var counts [3]int
	for i, want := range ref {
		got := done[i]
		if got.Bin != want.Bin {
			return fmt.Sprintf("device %d binned %v served, %v serially", i, got.Bin, want.Bin), nil
		}
		counts[got.Bin]++
	}
	if s := o.sum; counts != [3]int{s.Pass, s.Fail, s.Fallback} {
		return fmt.Sprintf("summary pass/fail/fallback %d/%d/%d, journal %v", s.Pass, s.Fail, s.Fallback, counts), nil
	}
	return "", nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation (xs is
// sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
