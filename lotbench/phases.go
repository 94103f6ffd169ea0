package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/lotserver"
	"repro/internal/modelreg"
	"repro/internal/rig"
)

// untraced measures every end-to-end metric. It sets up twice, each time
// building the rig and starting a server: first lotserverd with a model
// registry, whose drift response retrains in the background, for one
// saturation phase; then lotserverd without one, for a saturation and
// an open-loop phase. setup_s is the median of the two set-ups. Every
// figure but max_rss_mb is scaled to the reference host's speed (see
// hostwatch.go); the notes keep the figures as measured.
func untraced(rec *record, w workload, seed int64, span time.Duration, work string) error {
	var setups, rawSetups []float64
	setUp := func(name string, sh serverShape) (*rig.Rig, *served, *lotserver.Client, error) {
		hw := startWatch(nil)
		t0 := time.Now()
		r, err := rig.Build(rigParams(), nil)
		if err != nil {
			hw.close()
			return nil, nil, nil, err
		}
		s, err := startServer(r, filepath.Join(work, name), sh)
		secs := time.Since(t0).Seconds()
		hw.close()
		if err != nil {
			return nil, nil, nil, err
		}
		rawSetups = append(rawSetups, secs)
		setups = append(setups, secs/hw.slowdown())
		cl, err := dialClient(s, nil)
		if err != nil {
			s.stop()
			return nil, nil, nil, err
		}
		return r, s, cl, nil
	}
	warm, window, open := phases(span)

	r, s, cl, err := setUp("recal", serverShape{registry: true})
	if err != nil {
		return err
	}
	rate, outs := saturate(rec, "with drift recalibration", w, seed, s, cl, warm, window)
	rec.set("devices_per_s_recal", rate, "1/s")
	rec.note("drift watchdog with recalibration: %d alarms, %d recalibrated candidates staged",
		driftAlarms.Load(), s.srv.RolloutStatus().Recalibrations)
	err = rec.check(r, s, outs, 1, seed)
	cl.Close()
	s.stop()
	os.RemoveAll(s.dir)
	if err != nil {
		return err
	}

	r, s, cl, err = setUp("serve", serverShape{})
	if err != nil {
		return err
	}
	defer s.stop()
	defer cl.Close()
	rec.set("setup_s", median(setups), "s")
	rec.note("setup: %d set-ups, %.3f s scaled, %.3f s measured", len(setups), setups, rawSetups)

	rate, outs = saturate(rec, "", w, seed, s, cl, warm, window)
	rec.set("devices_per_s", rate, "1/s")

	hw := startWatch(nil)
	om, err := measureOpen(rec, w, s, cl, arrivals(w, seed, "open", open, minOpenLots), nil)
	hw.close()
	if err != nil {
		return err
	}
	slow := hw.slowdown()
	lats, raw, completed := quietLatencies(hw, om.outs)
	rec.set("lot_latency_p50_ms", quantile(lats, 0.5), "ms")
	rec.set("lot_latency_p95_ms", quantile(lats, 0.95), "ms")
	rec.set("cpu_ms_per_device", om.cpuPerDevice()/slow, "ms")
	rec.note("open loop: host %.3fx slower than the reference; measured %.4f ms/device of CPU, lot latency p50 %.3f ms, p95 %.3f ms",
		slow, om.cpuPerDevice(), quantile(raw, 0.5), quantile(raw, 0.95))
	rec.note("open loop: %d lot latency samples from quiet stretches of %d completed lots (%d beyond p95); %d devices committed in %.2f s (%.0f devices/s)",
		len(lats), completed, len(lats)/20, om.committed, om.elapsed.Seconds(), float64(om.committed)/om.elapsed.Seconds())
	rec.note("open loop: generator lag p50 %.3f ms, p99 %.3f ms", quantile(om.lags, 0.5), quantile(om.lags, 0.99))
	rec.set("max_rss_mb", maxRSSMB(), "MB")
	return rec.check(r, s, append(outs, om.outs...), w.checkLots, seed)
}

// saturate runs a closed saturation phase on s, keeping MaxActiveLots +
// MaxQueuedLots lots outstanding, records its lot counts, and returns
// committed devices per second over the quiet stretches of its window,
// scaled to the reference host's speed.
func saturate(rec *record, label string, w workload, seed int64, s *served, cl *lotserver.Client, warm, window time.Duration) (float64, []outcome) {
	st := s.srv.Status()
	outstanding := st.MaxActiveLots + st.MaxQueuedLots
	hw := startWatch(func() int { return s.srv.Status().DevicesCommitted })
	closed := runClosed(cl, stream(w, seed, "sat"), outstanding, warm, window)
	hw.close()
	rate, kept, all, steal := quietRate(hw.readings(), closed.from, closed.to)
	slow := hw.slowdown()
	if label != "" {
		label = ", " + label
	}
	name := fmt.Sprintf("saturation (closed, %d outstanding, %v window%s)", outstanding, window, label)
	rec.phase(tally(name, closed.outs))
	rec.note("%s: %d of %d slices of %v quiet, mean steal %.3f; %.1f devices/s measured, host %.3fx slower than the reference",
		name, kept, all, sliceReadings*readEvery*probeEvery, steal, rate, slow)
	return rate * slow, closed.outs
}

// openMeasure is one open-loop phase with the process counters around it.
type openMeasure struct {
	openResult
	cpu       time.Duration
	committed int
	rt        runtimeSample
	// scored and dropped are the shadow scorer's progress over the phase,
	// read once the shadow queue has drained.
	scored, dropped int
}

func (m openMeasure) cpuPerDevice() float64 { return ms(m.cpu) / float64(m.committed) }

// add folds another phase's measurements into m.
func (m *openMeasure) add(o openMeasure) {
	m.outs = append(m.outs, o.outs...)
	m.lags = append(m.lags, o.lags...)
	m.elapsed += o.elapsed
	m.cpu += o.cpu
	m.committed += o.committed
	m.rt.alloc += o.rt.alloc
	m.rt.gcCPU += o.rt.gcCPU
	m.rt.busyCPU += o.rt.busyCPU
	m.scored += o.scored
	m.dropped += o.dropped
}

// measureOpen runs one open-loop schedule on s and reads the commit, CPU
// and runtime counters around it. With a shadow candidate it starts and
// ends with the shadow queue drained, so every device committed in the
// phase is either scored or shed by the time it returns.
func measureOpen(rec *record, w workload, s *served, cl *lotserver.Client, reqs []lotReq, tr *tracer) (openMeasure, error) {
	var m openMeasure
	if s.shadow {
		if err := waitShadow(s, 30*time.Second); err != nil {
			return m, err
		}
	}
	sh0 := shadowStats(s)
	rt0, c0, cpu0 := readRuntime(), s.srv.Status().DevicesCommitted, cpuTime()
	m.openResult = runOpen(cl, reqs, tr)
	rt1, c1, cpu1 := readRuntime(), s.srv.Status().DevicesCommitted, cpuTime()
	name := "open loop"
	if tr != nil {
		name = "open loop, traced"
	}
	rec.phase(tally(fmt.Sprintf("%s (Poisson %g lots/s, %d lots)", name, w.lotsPerS, len(reqs)), m.outs))
	m.cpu, m.committed = cpu1-cpu0, c1-c0
	if m.committed == 0 {
		return m, errors.New("open-loop phase committed no device")
	}
	m.rt = runtimeSample{alloc: rt1.alloc - rt0.alloc, gcCPU: rt1.gcCPU - rt0.gcCPU, busyCPU: rt1.busyCPU - rt0.busyCPU}
	if s.shadow {
		if err := waitShadow(s, 30*time.Second); err != nil {
			return m, err
		}
		sh1 := shadowStats(s)
		m.scored, m.dropped = sh1.Scored-sh0.Scored, sh1.Dropped-sh0.Dropped
	}
	return m, nil
}

// check replays a sample of the lots from their journals against the
// serial reference; a mismatching lot counts as a failed one.
func (rec *record) check(r *rig.Rig, s *served, outs []outcome, n int, seed int64) error {
	bad, devices, err := checkBins(r, filepath.Join(s.dir, "journal"), outs, n, seed)
	if err != nil {
		return fmt.Errorf("correctness check: %w", err)
	}
	rec.note("check: %d lots (%d devices) replayed from journals against the serial reference, %d mismatched",
		n, devices, bad)
	rec.Result.Failed += bad
	rec.Result.Correct = rec.Result.Failed == 0
	return nil
}

// dialClient opens the run's one client connection, counted by wc when
// it is non-nil.
func dialClient(s *served, wc *wireCounter) (*lotserver.Client, error) {
	conn, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	if wc != nil {
		conn = wc.wrap(conn)
	}
	return lotserver.NewClient(conn, lotserver.ClientOptions{}), nil
}

// beginShadow stages the server's own calibration as a candidate and puts
// it in shadow.
func beginShadow(s *served, r *rig.Rig) error {
	v, err := s.srv.StageCandidate(r.Engine.Cal, r.Engine.Gate, "benchmark candidate")
	if err != nil {
		return err
	}
	return s.srv.BeginShadow(v)
}

func shadowStats(s *served) modelreg.DivergenceStats {
	if sh := s.srv.RolloutStatus().Shadow; sh != nil {
		return *sh
	}
	return modelreg.DivergenceStats{}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (getrusage reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// runtimeSample holds the Go runtime's cumulative heap allocation and
// CPU-class counters (or their deltas over a phase).
type runtimeSample struct{ alloc, gcCPU, busyCPU float64 }

func readRuntime() runtimeSample {
	ss := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(ss)
	return runtimeSample{
		alloc:   float64(ss[0].Value.Uint64()),
		gcCPU:   ss[1].Value.Float64(),
		busyCPU: ss[2].Value.Float64() - ss[3].Value.Float64(),
	}
}

// traced measures the per-layer breakdown: the engineering phase by
// stage, one open-loop schedule untraced and then traced on the same
// server, a remote-site phase, and the traced batches replayed through
// each screening kernel.
func traced(rec *record, w workload, seed int64, span time.Duration, work string) error {
	r, rl, err := buildTimed(rigParams())
	if err != nil {
		return err
	}
	rec.set("rig.optimize_s", rl.optimizeS, "s")
	rec.set("rig.train_s", rl.trainS, "s")
	rec.set("rig.calibrate_s", rl.calibrateS, "s")

	tr := newTracer()
	s, err := startServer(r, filepath.Join(work, "server"), serverShape{tr: tr})
	if err != nil {
		return err
	}
	var wc wireCounter
	cl, err := dialClient(s, &wc)
	if err != nil {
		return err
	}
	warm := runClosed(cl, stream(w, seed, "warm"), 4, 0, time.Second)
	rec.phase(tally("warm-up (closed, 4 outstanding, 1s)", warm.outs))

	// Half the open-loop span's schedule runs in two halves, each first
	// untraced and then traced (same lot seeds and arrival times, new lot
	// IDs), so machine drift falls evenly on both. The untraced blocks give
	// the trace overhead's baseline, the Go runtime's counters and the
	// generator's lateness.
	_, _, open := phases(span)
	reqs := arrivals(w, seed, "open", open/2, minOpenLots/2)
	var u, t openMeasure
	seeds := make(map[string]int64, len(reqs))
	var clientBytes int64
	for _, half := range [][]lotReq{reqs[:len(reqs)/2], reqs[len(reqs)/2:]} {
		base := half[0].due
		ureqs, treqs := make([]lotReq, len(half)), make([]lotReq, len(half))
		for i, q := range half {
			q.due -= base
			ureqs[i] = q
			q.id = "t" + q.id
			treqs[i] = q
			seeds[q.id] = q.seed
		}
		m, err := measureOpen(rec, w, s, cl, ureqs, nil)
		if err != nil {
			return err
		}
		u.add(m)
		tr.on.Store(true)
		b0 := wc.bytes.Load()
		m, err = measureOpen(rec, w, s, cl, treqs, tr)
		tr.on.Store(false)
		if err != nil {
			return err
		}
		clientBytes += wc.bytes.Load() - b0
		t.add(m)
	}
	rec.set("runtime.alloc_bytes_per_device", u.rt.alloc/float64(u.committed), "B")
	rec.set("runtime.gc_cpu_frac", u.rt.gcCPU/u.rt.busyCPU, "ratio")
	rec.set("bench.gen_lag_p99_ms", quantile(u.lags, 0.99), "ms")
	rec.set("bench.trace_overhead_frac", t.cpuPerDevice()/u.cpuPerDevice()-1, "ratio")
	rec.set("lotserver.client_bytes_per_lot", float64(clientBytes)/float64(len(t.outs)), "B")
	sat := 0
	for _, o := range t.outs {
		if o.kind == "saturated" {
			sat++
		}
	}
	rec.set("lotserver.shed_frac", float64(sat)/float64(len(t.outs)), "ratio")
	bs := tr.bursts()
	ll := tr.lotLayer(bs, t.committed)
	rec.set("lotserver.queue_wait_ms_p50", ll.queueWaitP50, "ms")
	rec.set("lotserver.queue_wait_ms_p95", ll.queueWaitP95, "ms")
	rec.set("lotserver.batch_fill", ll.batchFill, "count")
	rec.set("lotserver.dispatch_to_commit_ms_p50", ll.dispatchToCommitP50, "ms")
	rec.set("lotserver.hedge_dup_frac", ll.hedgeDupFrac, "ratio")
	rec.set("lotrun.fsync_us_p50", ll.fsyncP50, "us")
	rec.set("lotrun.fsync_us_p95", ll.fsyncP95, "us")
	rec.set("lotrun.fsyncs_per_device", ll.fsyncs, "count")
	rec.set("lotrun.journal_bytes_per_device", ll.journalBytes, "B")
	rec.set("lotrun.journal_open_ms_p50", ll.journalOpenP50, "ms")
	rec.note("traced: %d queue-wait samples, %d dispatch bursts; trace overhead %.4f (cpu %.4f vs %.4f ms/device)",
		ll.queueWaitN, len(bs), t.cpuPerDevice()/u.cpuPerDevice()-1, t.cpuPerDevice(), u.cpuPerDevice())
	if err := tr.write(filepath.Join(filepath.Dir(work), fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))); err != nil {
		return err
	}
	if err := rec.check(r, s, append(u.outs, t.outs...), w.checkLots, seed); err != nil {
		return err
	}
	cl.Close()
	s.stop()

	if err := shadowPhase(rec, w, seed, r, work, open/4); err != nil {
		return err
	}
	if err := remotePhase(rec, w, seed, r, work); err != nil {
		return err
	}
	kl, err := replayKernels(r, bs, seeds, 48)
	if err != nil {
		return err
	}
	rec.set("core.capture_us_per_device", kl.captureUS, "us")
	rec.set("dsp.signature_us_per_device", kl.signatureUS, "us")
	rec.set("core.predict_us_per_device", kl.predictUS, "us")
	rec.set("floor.gate_us_per_device", kl.gateUS, "us")
	rec.set("floor.screen_us_per_device", kl.screenUS, "us")
	rec.set("floor.insertions_per_device", kl.insertions, "count")
	rec.note("kernels: %d traced batches (%d devices) replayed", kl.batches, kl.devices)
	rec.set("modelreg.shadow_observe_ms", shadowObserveMS(r, kl.results, 12), "ms")
	frame, err := frameRoundtripUS(kl.results, 200)
	if err != nil {
		return err
	}
	rec.set("netfloor.frame_roundtrip_us", frame, "us")
	return nil
}

// shadowPhase runs a quarter of the open-loop span at half the
// workload's rate on a server with the base calibration staged as a
// candidate and scored in shadow, and reports the share of committed
// devices the candidate scored.
func shadowPhase(rec *record, w workload, seed int64, r *rig.Rig, work string, span time.Duration) error {
	s, err := startServer(r, filepath.Join(work, "shadow"), serverShape{registry: true, shadow: true})
	if err != nil {
		return err
	}
	defer s.stop()
	if err := beginShadow(s, r); err != nil {
		return err
	}
	cl, err := dialClient(s, nil)
	if err != nil {
		return err
	}
	defer cl.Close()
	ws := w
	ws.lotsPerS /= 2
	m, err := measureOpen(rec, ws, s, cl, arrivals(ws, seed, "shadow", span, 1), nil)
	if err != nil {
		return err
	}
	rec.set("modelreg.shadow_scored_frac", float64(m.scored)/float64(m.committed), "ratio")
	rec.note("shadow: %d of %d committed devices scored, %d shed", m.scored, m.committed, m.dropped)
	return rec.check(r, s, m.outs, 1, seed)
}

// remotePhase serves three seconds of the workload's lots through two remote
// sites (no local workers, no registry) and counts the site protocol's
// traffic through a counting Options.Dialer.
func remotePhase(rec *record, w workload, seed int64, r *rig.Rig, work string) error {
	ss, err := startSites(r, 2)
	if err != nil {
		return err
	}
	defer ss.stop()
	var wc wireCounter
	s, err := startServer(r, filepath.Join(work, "remote"), serverShape{sites: ss.addrs, dialer: wc.dial})
	if err != nil {
		return err
	}
	defer s.stop()
	cl, err := dialClient(s, nil)
	if err != nil {
		return err
	}
	defer cl.Close()
	cr := runClosed(cl, stream(w, seed, "remote"), 4, 0, 3*time.Second)
	rec.phase(tally("remote sites (closed, 4 outstanding, 3s)", cr.outs))
	st := s.srv.Status()
	devices := float64(st.DevicesCommitted)
	if devices == 0 {
		return errors.New("remote-site phase committed no device")
	}
	assigns, retries := 0, 0
	for _, site := range st.Sites {
		assigns += site.Assigns
		retries += site.Retries
	}
	rec.set("netfloor.wire_bytes_per_device", float64(wc.bytes.Load())/devices, "B")
	rec.set("netfloor.writes_per_device", float64(wc.writes.Load())/devices, "count")
	rec.set("netfloor.assigns_per_device", float64(assigns)/devices, "count")
	rec.set("netfloor.retry_frac", float64(retries)/float64(max(assigns, 1)), "ratio")
	rec.note("remote sites: %.0f devices committed over 2 sites, %d assignments", devices, assigns)
	return rec.check(r, s, cr.outs, 1, seed)
}
