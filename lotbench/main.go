// Command lotbench is the repository's end-to-end benchmark: the
// multi-lot screening service as cmd/lotserverd runs it in production,
// driven by one client over loopback TCP.
//
//	bash lotbench/run.sh --workload lots_steady --seed 1 --seconds 42 --trace 0
//
// A run builds the rig and starts in-process lotserver.Servers with the
// Options lotserverd builds from its flags (see startServer; journals are
// fsync'd on the disk under .bench_build/), and measures on one client
// connection per server:
//
//   - closed saturation: MaxActiveLots+MaxQueuedLots lots kept
//     outstanding; committed devices per second is the floor's capacity.
//     It is measured twice, on two servers each set up from scratch:
//     with lotserverd's model registry and its drift-alarm retraining
//     (devices_per_s_recal), and without (devices_per_s);
//   - open loop, on the server without the registry: Poisson lot
//     arrivals at the workload's fixed rate, each lot timed from when it
//     was due until its summary arrives.
//
// Rates and latencies are taken from the stretches of each phase in
// which the hypervisor gave no more than a few percent of the host's CPU
// to other guests, and scaled to a reference host speed (see hostwatch.go).
//
// Outside the timed window a seeded sample of lots is replayed from its
// journals and every bin compared with a serial floor.Engine.ScreenDevice
// reference. With --trace 0 the run prints the end-to-end metrics. With
// --trace 1 it prints the per-layer metrics instead: the engineering
// phase timed stage by stage; the open-loop schedule run untraced and
// traced (through Options.Hook, Options.FS and a counting client
// connection) in alternating halves; short shadow-scoring and remote-site
// phases; and the traced batches replayed through each screening kernel.
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}; a longer record, stamped with the
// host, goes to .bench_build/lotbench/results/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything one run measured, saved under .bench_build.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    bool     `json:"trace"`
	Host     host     `json:"host"`
	Phases   []string `json:"phases"`
	Notes    []string `json:"notes"`
	Result   result   `json:"result"`
}

func main() { os.Exit(run()) }

func run() int {
	root := flag.String("root", ".", "checkout root; all output goes under <root>/.bench_build/lotbench")
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: lot sizes, lot seeds and arrival times derive from it")
	seconds := flag.Int("seconds", 42, "measured seconds per run (saturation plus open-loop phase)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lotbench:", err)
		return 2
	}
	if *seconds < 12 {
		fmt.Fprintln(os.Stderr, "lotbench: --seconds must be at least 12")
		return 2
	}
	// One process, one client: the generator shares the machine with the
	// server, so never ask for more threads than there are CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	stop := time.AfterFunc(175*time.Second, func() {
		fmt.Fprintln(os.Stderr, "lotbench: run exceeded 175 s")
		os.Exit(3)
	})
	defer stop.Stop()

	base := filepath.Join(*root, ".bench_build", "lotbench")
	work := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lotbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	rec := &record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Host: stampHost(*root, work)}

	span := time.Duration(*seconds) * time.Second
	cpu0 := readHostCPU()
	if *trace == 1 {
		err = traced(rec, w, *seed, span, work)
	} else {
		err = untraced(rec, w, *seed, span, work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lotbench:", err)
		return 1
	}
	rec.Host.StealFrac = readHostCPU().stealSince(cpu0)
	hj, _ := json.Marshal(rec.Host)
	fmt.Printf("host %s\n", hj)
	for _, p := range rec.Phases {
		fmt.Println(p)
	}
	for _, n := range rec.Notes {
		fmt.Println(n)
	}
	if data, err := json.MarshalIndent(rec, "", "  "); err == nil {
		dir := filepath.Join(base, "results")
		if os.MkdirAll(dir, 0o755) == nil {
			os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace)), data, 0o644)
		}
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lotbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// phases splits the measured span: five seconds for each of the two
// closed saturation phases, whose first second warms up, and the rest
// open loop, where the latency tail needs every lot it can get.
func phases(span time.Duration) (warm, window, open time.Duration) {
	const sat = 5 * time.Second
	return time.Second, sat - time.Second, span - 2*sat
}

func (rec *record) note(format string, args ...any) {
	rec.Notes = append(rec.Notes, fmt.Sprintf(format, args...))
}

func (rec *record) set(name string, v float64, unit string) {
	if rec.Result.Metrics == nil {
		rec.Result.Metrics = make(map[string]metric)
	}
	rec.Result.Metrics[name] = metric{Value: v, Unit: unit}
}

// phase records a phase's lot counts and counts its failed lots into the
// result.
func (rec *record) phase(p phaseStats) {
	rec.Phases = append(rec.Phases, p.String())
	rec.Result.Attempted += p.attempted
	rec.Result.Failed += p.failed()
}
