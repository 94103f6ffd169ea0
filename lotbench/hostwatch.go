package main

// Measuring on a shared host. Two things outside the program move every
// wall-clock figure from one minute to the next on a shared 2-core
// virtual machine:
//
//   - the hypervisor gives the benchmark's CPUs to other guests (steal),
//     in bursts of seconds to minutes;
//   - the same instructions take more or less CPU time (other guests on
//     the sibling hardware threads and caches): by up to a half between
//     runs.
//
// A watch runs through each measured phase. It samples the host's steal
// counter, so that rates and latencies are taken from the stretches of
// the phase in which little was stolen; on a quiet host that is every
// stretch. And it times a fixed piece of arithmetic in its own thread's
// CPU time, about 0.2 % of one CPU, whose median is the host's speed: over
// the phase for rates and CPU time, over each lot's own lifetime for its
// latency. Every time and rate the benchmark reports is scaled to
// refProbe, the probe's time on the host the bounds were set on; the
// figures as measured are kept in the run's notes.

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// probeEvery is how often the watch times its probe.
	probeEvery = 25 * time.Millisecond
	// readEvery is how many probes pass between two readings of the
	// host's CPU counters.
	readEvery = 10
	// sliceReadings is how many readings apart a saturation slice's ends
	// are.
	sliceReadings = 2
	// quietFrac is the largest share of the host's CPU time that may be
	// stolen for a slice or a lot to count as measured on a quiet host.
	quietFrac = 0.05
	// localSpan is the least stretch of probes a lot's latency is scaled by.
	localSpan = time.Second
	// refProbe is the probe's median CPU time, in ns, on the 2-core Xeon
	// guest the benchmark's bounds were set on, with the floor running.
	refProbe = 50000
)

// probe is one timing of probeWork.
type probe struct {
	at time.Time
	ns float64
}

// reading is one sample of the host's CPU counters and the server's
// commit counter.
type reading struct {
	at        time.Time
	host      hostCPU
	committed int
}

// watch samples the host through one phase until it is closed.
type watch struct {
	// committed reads the server's commit counter; nil reads 0.
	committed func() int
	mu        sync.Mutex
	rs        []reading
	probes    []probe
	stop      chan struct{}
	done      chan struct{}
}

func startWatch(committed func() int) *watch {
	w := &watch{committed: committed, stop: make(chan struct{}), done: make(chan struct{})}
	w.read()
	go w.run()
	return w
}

func (w *watch) run() {
	defer close(w.done)
	// The probe is timed in its thread's CPU time, so it keeps to one
	// thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]float64, 4096)
	for i := range buf {
		buf[i] = float64(i % 17)
	}
	t := time.NewTicker(probeEvery)
	defer t.Stop()
	for n := 1; ; n++ {
		select {
		case <-w.stop:
			w.read()
			return
		case <-t.C:
		}
		t0 := threadCPU()
		probeWork(buf)
		d := threadCPU() - t0
		w.mu.Lock()
		w.probes = append(w.probes, probe{at: time.Now(), ns: float64(d)})
		w.mu.Unlock()
		if n%readEvery == 0 {
			w.read()
		}
	}
}

func (w *watch) read() {
	r := reading{at: time.Now(), host: readHostCPU()}
	if w.committed != nil {
		r.committed = w.committed()
	}
	w.mu.Lock()
	w.rs = append(w.rs, r)
	w.mu.Unlock()
}

// close stops the watch after one last reading.
func (w *watch) close() {
	close(w.stop)
	<-w.done
}

func (w *watch) readings() []reading {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]reading(nil), w.rs...)
}

// slowdown is how much slower than the reference host this one ran
// through the watch: the probe's median time over refProbe.
func (w *watch) slowdown() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return probeSlowdown(w.probes)
}

// localSlowdown is the slowdown over [from, to] widened by half a second
// on each side, or over the whole watch when that holds too few probes.
func (w *watch) localSlowdown(from, to time.Time) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	ps := w.probes
	i := sort.Search(len(ps), func(i int) bool { return !ps[i].at.Before(from.Add(-localSpan / 2)) })
	j := sort.Search(len(ps), func(j int) bool { return ps[j].at.After(to.Add(localSpan / 2)) })
	if j-i < int(localSpan/probeEvery)/2 {
		return probeSlowdown(ps)
	}
	return probeSlowdown(ps[i:j])
}

func probeSlowdown(ps []probe) float64 {
	if len(ps) == 0 {
		return 1
	}
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.ns
	}
	return median(xs) / refProbe
}

var probeSink float64

// probeWork is the probe: multiply-adds, square roots and strided loads
// over a 32 KiB buffer, like the floor's envelope and FFT kernels.
func probeWork(buf []float64) {
	mask := len(buf) - 1
	s := 0.0
	for r := 0; r < 4; r++ {
		for i := range buf {
			j := (i*7 + r) & mask
			buf[i] = buf[i]*0.999 + buf[j]*0.001 + math.Sqrt(math.Abs(buf[j])+1)*1e-6
			s += buf[i]
		}
	}
	probeSink += s
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// slice is a stretch of a saturation phase.
type slice struct {
	seconds float64
	devices int
	steal   float64
}

// slices cuts the readings taken in [from, to] into slices
// sliceReadings readings long.
func slices(rs []reading, from, to time.Time) []slice {
	var in []reading
	for _, r := range rs {
		if !r.at.Before(from) && !r.at.After(to) {
			in = append(in, r)
		}
	}
	var out []slice
	for i := sliceReadings; i < len(in); i += sliceReadings {
		a, b := in[i-sliceReadings], in[i]
		out = append(out, slice{seconds: b.at.Sub(a.at).Seconds(), devices: b.committed - a.committed, steal: b.host.stealSince(a.host)})
	}
	return out
}

// stealOver is the stolen share over the shortest run of readings that
// covers [from, to].
func stealOver(rs []reading, from, to time.Time) float64 {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].at.After(from) }) - 1
	j := sort.Search(len(rs), func(j int) bool { return !rs[j].at.Before(to) })
	i = max(i, 0)
	j = min(j, len(rs)-1)
	if j <= i {
		if i+1 < len(rs) {
			j = i + 1
		} else if i > 0 {
			i--
		}
	}
	return rs[j].host.stealSince(rs[i].host)
}

// keepQuiet picks the items measured on a quiet host: those whose stolen
// share is at most quietFrac, or, when fewer than least are, the least
// disturbed least items.
func keepQuiet(steal []float64, least int) []bool {
	keep := make([]bool, len(steal))
	n := 0
	for i, f := range steal {
		if f <= quietFrac {
			keep[i] = true
			n++
		}
	}
	if n >= least {
		return keep
	}
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	for _, i := range idx[:min(least, len(idx))] {
		keep[i] = true
	}
	return keep
}

// quietRate is committed devices per second over the quiet slices of
// [from, to]: at least half of them, the least disturbed.
func quietRate(rs []reading, from, to time.Time) (rate float64, kept, all int, meanSteal float64) {
	ss := slices(rs, from, to)
	fs := make([]float64, len(ss))
	for i, s := range ss {
		fs[i] = s.steal
		meanSteal += s.steal / float64(len(ss))
	}
	var secs float64
	var devs int
	for i, k := range keepQuiet(fs, (len(ss)+1)/2) {
		if k {
			secs += ss[i].seconds
			devs += ss[i].devices
			kept++
		}
	}
	return float64(devs) / secs, kept, len(ss), meanSteal
}

// minLatencyLots is the fewest lots a latency figure is taken over, so
// that its p95 has at least ten samples beyond it.
const minLatencyLots = 200

// quietLatencies returns the latencies, in ms, of the completed lots that
// were served while the host was quiet — at least minLatencyLots and at
// least half of them, the least disturbed — each scaled to the reference
// host's speed over its own lifetime and as measured, and how many lots
// completed.
func quietLatencies(hw *watch, outs []outcome) (lats, raw []float64, completed int) {
	var ok []outcome
	for _, o := range outs {
		if o.kind == "ok" {
			ok = append(ok, o)
		}
	}
	rs := hw.readings()
	fs := make([]float64, len(ok))
	for i, o := range ok {
		fs[i] = stealOver(rs, o.done.Add(-o.lat), o.done)
	}
	for i, k := range keepQuiet(fs, max(minLatencyLots, (len(ok)+1)/2)) {
		if k {
			o := ok[i]
			lats = append(lats, ms(o.lat)/hw.localSlowdown(o.done.Add(-o.lat), o.done))
			raw = append(raw, ms(o.lat))
		}
	}
	return lats, raw, len(ok)
}
