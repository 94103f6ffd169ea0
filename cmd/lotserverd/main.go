// Command lotserverd is the long-lived multi-lot screening service. It
// builds the engineering rig once, then serves lot submissions from many
// concurrent clients (cmd/sigtest -server) over TCP, screening on local
// workers and/or remote sitetester processes. Every lot gets its own
// fsync'd journal, watchdog and circuit breakers; admission is bounded
// (backpressure instead of collapse); a mega-lot cannot starve a small
// one; and SIGINT/SIGTERM runs a staged drain — stop admitting, finish
// in-flight devices, checkpoint every journal, answer every client.
//
// Three-terminal walkthrough:
//
//	lotserverd -dut rf2401 -produce 120 -listen :7200 \
//	           -journal /tmp/lots -sites :7101          # terminal 1
//	sitetester -dut rf2401 -produce 120 -listen :7101   # terminal 2
//	sigtest -dut rf2401 -produce 120 \
//	        -server :7200 -lot waferA -lotseed 99       # terminal 3
//
// With -registry DIR the server keeps a durable store of versioned
// calibration artifacts and runs the staged rollout lifecycle: drift
// alarms refit the regression and stage a candidate; `sigtest -server
// -rollout shadow/promote/demote` walks it through shadow screening and
// a canary fraction of new lots to ACTIVE, with automatic rollback on
// divergence. Lots are pinned to one version for life (journaled), so a
// restart resumes every lot under the calibration it started with.
//
// Rig flags (-dut, -seed, -train, -produce, -quick, -faultp) must match
// across all processes; the site handshake pins the engine fingerprint
// and the client protocol carries only (lot ID, lot seed, device count).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/floor"
	"repro/internal/lotrun"
	"repro/internal/lotserver"
	"repro/internal/modelreg"
	"repro/internal/rig"
)

func main() {
	dut := flag.String("dut", "lna", "device family: lna (circuit-level) or rf2401 (behavioral)")
	seed := flag.Int64("seed", 1, "random seed (must match the sites)")
	train := flag.Int("train", 0, "training devices (default 100 lna / 28 rf2401)")
	produce := flag.Int("produce", 50, "device pool size; lots screen a prefix of it (must match the sites)")
	quick := flag.Bool("quick", false, "smaller GA budget")
	faultP := flag.Float64("faultp", 0.10, "total per-insertion fault probability")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for the engineering phase")
	listen := flag.String("listen", ":7200", "address to serve lot submissions on")
	statusAddr := flag.String("statusz", "", "address to serve the /statusz JSON snapshot on (empty = off)")
	journal := flag.String("journal", "", "journal directory: one fsync'd <lot>.journal per lot (empty = no crash safety)")
	journalRetries := flag.Int("journal-retries", 3, "commit attempts per journal record before the lot degrades to journal-less mode")
	journalBackoff := flag.Duration("journal-retry-backoff", time.Millisecond, "sleep before the first journal commit retry, doubling per attempt")
	registry := flag.String("registry", "", "model-registry directory: versioned calibration artifacts, shadow screening and staged rollout (empty = base model only)")
	canary := flag.Float64("canary", 0.25, "fraction of new lots pinned to the candidate during a canary rollout (with -registry)")
	sites := flag.String("sites", "", "comma-separated remote sitetester addresses")
	local := flag.Int("local", 0, "local screening workers (default 1 when no -sites)")
	maxActive := flag.Int("max-active", 0, "max concurrently screening lots (default 4)")
	maxQueued := flag.Int("max-queued", 0, "max admitted-but-waiting lots before shedding (default 8)")
	heartbeat := flag.Duration("heartbeat", time.Second, "liveness beacon period")
	drainWait := flag.Duration("drain", 2*time.Minute, "graceful shutdown budget before forcing exit")
	flag.Parse()

	if *faultP < 0 || *faultP > 1 {
		usageFail("-faultp %g is not a probability; need a value in [0, 1]", *faultP)
	}
	if *workers < 1 {
		usageFail("-workers %d is not a pool size; need an integer >= 1", *workers)
	}
	if *produce < 1 {
		usageFail("-produce %d is not a pool size; need an integer >= 1", *produce)
	}
	if *heartbeat <= 0 {
		usageFail("-heartbeat %v is not a period; need a positive duration", *heartbeat)
	}
	if *canary <= 0 || *canary > 1 {
		usageFail("-canary %g is not a traffic fraction; need a value in (0, 1]", *canary)
	}
	if *journalRetries < 1 {
		usageFail("-journal-retries %d is not an attempt count; need an integer >= 1", *journalRetries)
	}
	if *journalBackoff <= 0 {
		usageFail("-journal-retry-backoff %v is not a backoff; need a positive duration", *journalBackoff)
	}

	fmt.Printf("lotserverd: building rig (dut=%s seed=%d produce=%d)...\n", *dut, *seed, *produce)
	r, err := rig.Build(rig.Params{
		DUT: *dut, Seed: *seed, Train: *train, Produce: *produce,
		Quick: *quick, FaultP: *faultP, Workers: *workers,
	}, nil)
	if err != nil {
		fail("%v", err)
	}

	var siteAddrs []string
	if *sites != "" {
		for _, a := range strings.Split(*sites, ",") {
			if a = strings.TrimSpace(a); a != "" {
				siteAddrs = append(siteAddrs, a)
			}
		}
	}

	opt := lotserver.Options{
		Engine: r.Engine, Pool: r.Lot, Faults: r.Faults,
		JournalDir:        *journal,
		JournalRetry:      lotrun.RetryPolicy{Attempts: *journalRetries, Backoff: *journalBackoff},
		Sites:             siteAddrs,
		LocalWorkers:      *local,
		MaxActiveLots:     *maxActive,
		MaxQueuedLots:     *maxQueued,
		HeartbeatInterval: *heartbeat,
		NetSeed:           *seed,
		CanaryFraction:    *canary,
		OnDrift: func(lotID string, a lotrun.DriftAlarm) {
			fmt.Printf("lotserverd: DRIFT lot=%s device=%d detector=%s (ewma %.2f, cusum %.2f)\n",
				lotID, a.Device, a.Detector, a.EWMA, a.CUSUM)
		},
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	if *registry != "" {
		reg, err := modelreg.Open(*registry)
		if err != nil {
			fail("%v", err)
		}
		opt.Registry = reg
		// Drift response: refit the regression on the rig's training set
		// with a fresh optimizer stream and stage the result as a rollout
		// candidate — screening never stops for a retrain.
		opt.Recalibrate = func(lotID string, a lotrun.DriftAlarm) (*core.Calibration, *floor.Gate, error) {
			rng := rand.New(rand.NewSource(*seed + int64(a.Device) + 1))
			cal, err := core.Calibrate(rng, r.Stim, r.Train, core.CalibrationOptions{Workers: *workers})
			if err != nil {
				return nil, nil, err
			}
			return cal, r.Gate, nil
		}
		info := reg.LoadInfo()
		fmt.Printf("lotserverd: model registry %s: %d artifacts, active v%d",
			*registry, info.Artifacts, reg.Active())
		if info.Corrupt > 0 {
			fmt.Printf(" (%d corrupt records skipped)", info.Corrupt)
		}
		fmt.Println()
	}
	s, err := lotserver.New(opt)
	if err != nil {
		fail("%v", err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("lotserverd: serving lots (pool %d devices, engine fingerprint %x, %d sites, %d local workers) on %s\n",
		len(r.Lot), r.Engine.Fingerprint(), len(siteAddrs), *local, ln.Addr())

	if *statusAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/statusz", s.StatusHandler())
		hs := &http.Server{Addr: *statusAddr, Handler: mux}
		go func() {
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "lotserverd: statusz: %v\n", err)
			}
		}()
		defer hs.Close()
		fmt.Printf("lotserverd: /statusz on %s\n", *statusAddr)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeClients(ln) }()

	// Staged drain on the first signal: stop admitting (new submissions
	// answer ErrDraining), finish in-flight devices, checkpoint every
	// journal, answer every waiting client, then exit 0. A second signal —
	// or blowing the -drain budget — kills the server; the fsync'd
	// journals still resume every accepted lot on restart.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		s.Kill()
		if err != nil {
			fail("%v", err)
		}
		return
	case sig := <-sigs:
		fmt.Printf("lotserverd: %v: draining (signal again to force exit)\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	go func() {
		<-sigs
		fmt.Println("lotserverd: forcing exit")
		cancel()
	}()
	if err := s.Shutdown(ctx); err != nil {
		s.Kill()
		fail("drain incomplete: %v (journals preserve all progress)", err)
	}
	fmt.Println("lotserverd: drained and shut down")
}

func usageFail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lotserverd: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lotserverd: "+format+"\n", args...)
	os.Exit(1)
}
