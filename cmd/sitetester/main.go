// Command sitetester is one remote tester site of the distributed test
// floor. It rebuilds the full engineering rig (stimulus, calibration,
// gate, floor engine and production lot) from the same flags the
// coordinator uses, then serves device assignments over TCP: the wire
// carries only device indices, and determinism does the rest — the site
// screens device i exactly as the coordinator (or any other site) would.
//
// Two-terminal walkthrough:
//
//	sitetester -dut rf2401 -produce 120 -listen :7101   # terminal 1
//	sigtest -dut rf2401 -produce 120 -faults \
//	        -remote :7101                               # terminal 2
//
// Any flag that changes the rig (-dut, -seed, -train, -produce, -quick,
// -faultp) must match across all processes; the Hello handshake carries
// the engine fingerprint and floor identity, so a mismatched site is
// refused instead of silently binning differently.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/netfloor"
	"repro/internal/rig"
)

func main() {
	dut := flag.String("dut", "lna", "device family: lna (circuit-level) or rf2401 (behavioral)")
	seed := flag.Int64("seed", 1, "random seed (must match the coordinator)")
	train := flag.Int("train", 0, "training devices (default 100 lna / 28 rf2401)")
	produce := flag.Int("produce", 50, "production lot size (must match the coordinator)")
	quick := flag.Bool("quick", false, "smaller GA budget")
	faultP := flag.Float64("faultp", 0.10, "total per-insertion fault probability")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for the engineering phase")
	listen := flag.String("listen", ":7101", "address to serve assignments on")
	name := flag.String("name", "", "site name in coordinator reports (default the listen address)")
	heartbeat := flag.Duration("heartbeat", time.Second, "liveness beacon period")
	idle := flag.Duration("idle", 0, "drop a silent coordinator connection after this long (default 10x heartbeat)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the service run to this file (pprof format)")
	flag.Parse()

	if *faultP < 0 || *faultP > 1 {
		usageFail("-faultp %g is not a probability; need a value in [0, 1]", *faultP)
	}
	if *workers < 1 {
		usageFail("-workers %d is not a pool size; need an integer >= 1", *workers)
	}
	if *produce < 1 {
		usageFail("-produce %d is not a lot size; need an integer >= 1", *produce)
	}
	if *heartbeat <= 0 {
		usageFail("-heartbeat %v is not a period; need a positive duration", *heartbeat)
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fail("%v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fail("%v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
			fmt.Printf("sitetester: cpu profile written to %s\n", *cpuprofile)
		}()
	}

	fmt.Printf("sitetester: building rig (dut=%s seed=%d produce=%d)...\n", *dut, *seed, *produce)
	r, err := rig.Build(rig.Params{
		DUT: *dut, Seed: *seed, Train: *train, Produce: *produce,
		Quick: *quick, FaultP: *faultP, Workers: *workers,
	}, nil)
	if err != nil {
		fail("%v", err)
	}

	site := &netfloor.Site{
		Name:              *name,
		Engine:            r.Engine,
		Lot:               r.Lot,
		Faults:            r.Faults,
		HeartbeatInterval: *heartbeat,
		IdleTimeout:       *idle,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("sitetester: serving lot (seed=%d, %d devices, engine fingerprint %x) on %s\n",
		r.Params.Seed, len(r.Lot), r.Engine.Fingerprint(), ln.Addr())

	// Graceful drain: the first SIGINT/SIGTERM stops accepting new
	// connections and announces a drain to connected coordinators, but
	// lets every in-flight device finish screening and its Result flush —
	// the coordinator reassigns nothing and the lot's bins are untouched.
	// A second signal abandons the drain and exits immediately.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Printf("sitetester: %v: draining (in-flight devices will finish; signal again to force exit)\n", sig)
		site.Drain()
		ln.Close()
		sig = <-sigs
		fmt.Printf("sitetester: %v: forcing exit\n", sig)
		cancel()
	}()

	if err := site.Serve(ctx, ln); err != nil {
		fail("%v", err)
	}
	st := site.Stats()
	if st.HeartbeatFails+st.DrainAckFails+st.ErrorSendFails+st.DrainNotifyFails > 0 {
		fmt.Printf("sitetester: send failures during service: heartbeat=%d drain-ack=%d error=%d drain-notify=%d\n",
			st.HeartbeatFails, st.DrainAckFails, st.ErrorSendFails, st.DrainNotifyFails)
	}
	fmt.Println("sitetester: shut down")
}

func usageFail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sitetester: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sitetester: "+format+"\n", args...)
	os.Exit(1)
}
