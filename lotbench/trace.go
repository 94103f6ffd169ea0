package main

// Tracing from outside the program: spans and counts are recorded at the
// public seams the server exposes — Options.Hook (a local worker picking
// up a device), Options.FS (journal create, write and fsync), the client
// connection and Options.Dialer (bytes on the wire) — and kept in memory,
// keyed by lot ID, until the run ends.

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diskfault"
	"repro/internal/netfloor"
)

// lotSpan is one lot's life: due → sent → first dispatch → commits →
// summary, with per-device dispatch and journal-write times.
type lotSpan struct {
	ID      string `json:"id"`
	Devices int    `json:"devices"`
	// Times are microseconds since the tracer started; -1 = never.
	DueUS       int64 `json:"due_us"`
	SentUS      int64 `json:"sent_us"`
	FirstHookUS int64 `json:"first_hook_us"`
	DoneUS      int64 `json:"done_us"`
	// HookUS and CommitUS are each device's first dispatch and first
	// journal write; Dups counts repeated dispatches of a device.
	HookUS   map[int]int64 `json:"hook_us"`
	CommitUS map[int]int64 `json:"commit_us"`
	Dups     int           `json:"dups"`
}

// hookEvent is one Options.Hook call: a local worker (goroutine gid)
// taking one device of a lot.
type hookEvent struct {
	lot string
	dev int
	at  int64
	gid uint64
}

// tracer collects spans and counts for one traced server. It records
// only while on is set, so one server can run an untraced and a traced
// phase back to back.
type tracer struct {
	start time.Time
	on    atomic.Bool

	mu      sync.Mutex
	lots    map[string]*lotSpan
	hooks   []hookEvent
	fsyncs  []float64 // µs
	opens   []float64 // ms, journal create → directory fsync
	pending []int64   // journal creates awaiting their directory fsync
	jbytes  int64
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), lots: make(map[string]*lotSpan)}
}

func (t *tracer) now() int64 { return time.Since(t.start).Microseconds() }

func (t *tracer) us(at time.Time) int64 { return at.Sub(t.start).Microseconds() }

// span returns the lot's span, creating it on first use. Caller holds mu.
func (t *tracer) span(id string) *lotSpan {
	sp := t.lots[id]
	if sp == nil {
		sp = &lotSpan{ID: id, DueUS: -1, SentUS: -1, FirstHookUS: -1, DoneUS: -1,
			HookUS: make(map[int]int64), CommitUS: make(map[int]int64)}
		t.lots[id] = sp
	}
	return sp
}

// sent records a lot leaving the load generator.
func (t *tracer) sent(req lotReq, due time.Time) {
	at := t.now()
	t.mu.Lock()
	sp := t.span(req.id)
	sp.Devices = req.devices
	sp.DueUS = t.us(due)
	sp.SentUS = at
	t.mu.Unlock()
}

// finished records a lot's summary reaching the client.
func (t *tracer) finished(id string, at time.Time) {
	t.mu.Lock()
	t.span(id).DoneUS = t.us(at)
	t.mu.Unlock()
}

// hook is installed as Options.Hook: it runs on the local worker right
// before the device is screened.
func (t *tracer) hook(lotID string, device int) {
	if !t.on.Load() {
		return
	}
	at := t.now()
	gid := goroutineID()
	t.mu.Lock()
	sp := t.span(lotID)
	if sp.FirstHookUS < 0 {
		sp.FirstHookUS = at
	}
	if _, seen := sp.HookUS[device]; seen {
		sp.Dups++
	} else {
		sp.HookUS[device] = at
	}
	t.hooks = append(t.hooks, hookEvent{lot: lotID, dev: device, at: at, gid: gid})
	t.mu.Unlock()
}

// goroutineID parses the calling goroutine's ID from its stack header
// ("goroutine 123 [running]:"); tracing uses it to tell the local workers'
// dispatch bursts apart.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// traceFS is the Options.FS timing wrapper over diskfault.OS: journal
// creates (open → directory fsync), each record's write, and each fsync.
type traceFS struct {
	diskfault.FS
	t *tracer
}

func (f *traceFS) OpenFile(name string, flag int, perm fs.FileMode) (diskfault.File, error) {
	at := f.t.now()
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || !f.t.on.Load() || !strings.HasSuffix(name, ".journal") {
		return file, err
	}
	if flag&os.O_CREATE != 0 {
		f.t.mu.Lock()
		f.t.pending = append(f.t.pending, at)
		f.t.mu.Unlock()
	}
	return &traceFile{File: file, t: f.t, lot: strings.TrimSuffix(filepath.Base(name), ".journal")}, nil
}

// SyncDir ends the oldest pending journal create: the server admits lots
// from one client connection one at a time, so creates never overlap.
func (f *traceFS) SyncDir(dir string) error {
	err := f.FS.SyncDir(dir)
	at := f.t.now()
	f.t.mu.Lock()
	if f.t.on.Load() && len(f.t.pending) > 0 {
		f.t.opens = append(f.t.opens, float64(at-f.t.pending[0])/1e3)
		f.t.pending = f.t.pending[1:]
	}
	f.t.mu.Unlock()
	return err
}

type traceFile struct {
	diskfault.File
	t   *tracer
	lot string
}

var indexKey = []byte(`"Index":`)

// Write records the journal bytes and, for a device record, the device's
// commit time.
func (f *traceFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	at := f.t.now()
	dev := -1
	if i := bytes.Index(p, indexKey); i >= 0 {
		rest := p[i+len(indexKey):]
		j := 0
		for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
			j++
		}
		if v, err := strconv.Atoi(string(rest[:j])); err == nil {
			dev = v
		}
	}
	f.t.mu.Lock()
	f.t.jbytes += int64(n)
	if dev >= 0 {
		sp := f.t.span(f.lot)
		if _, seen := sp.CommitUS[dev]; !seen {
			sp.CommitUS[dev] = at
		}
	}
	f.t.mu.Unlock()
	return n, err
}

func (f *traceFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := float64(time.Since(t0).Nanoseconds()) / 1e3
	f.t.mu.Lock()
	f.t.fsyncs = append(f.t.fsyncs, d)
	f.t.mu.Unlock()
	return err
}

// countConn counts the bytes and Write calls crossing a connection.
type countConn struct {
	net.Conn
	bytes, writes *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	c.writes.Add(1)
	return n, err
}

// wireCounter counts traffic on every connection it opens or wraps; its
// dial method is the Options.Dialer counting wrapper over TCPDialer.
type wireCounter struct {
	bytes, writes atomic.Int64
}

func (w *wireCounter) wrap(c net.Conn) net.Conn {
	return &countConn{Conn: c, bytes: &w.bytes, writes: &w.writes}
}

func (w *wireCounter) dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := netfloor.TCPDialer(ctx, addr)
	if err != nil {
		return nil, err
	}
	return w.wrap(c), nil
}

// burst is one local worker's dispatch of a batch: consecutive Hook calls
// on one goroutine for one lot.
type burst struct {
	lot  string
	devs []int
}

// burstGapUS separates two bursts on one worker: the hooks of one batch
// run back to back, while even a one-device kernel call takes
// milliseconds.
const burstGapUS = 500

// bursts groups the hook events into per-worker dispatch bursts, in time
// order.
func (t *tracer) bursts() []burst {
	t.mu.Lock()
	evs := append([]hookEvent(nil), t.hooks...)
	t.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].gid != evs[j].gid {
			return evs[i].gid < evs[j].gid
		}
		return evs[i].at < evs[j].at
	})
	type timed struct {
		burst
		at int64
	}
	var out []timed
	for i, ev := range evs {
		if i == 0 || ev.gid != evs[i-1].gid || ev.lot != evs[i-1].lot || ev.at-evs[i-1].at > burstGapUS {
			out = append(out, timed{burst: burst{lot: ev.lot}, at: ev.at})
		}
		b := &out[len(out)-1]
		b.devs = append(b.devs, ev.dev)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	bs := make([]burst, len(out))
	for i := range out {
		bs[i] = out[i].burst
	}
	return bs
}

// lotLayer is the lotserver and lotrun breakdown of one traced phase.
type lotLayer struct {
	queueWaitP50, queueWaitP95 float64 // ms, due → first dispatch
	queueWaitN                 int
	batchFill                  float64 // devices per dispatch burst
	dispatchToCommitP50        float64 // ms
	hedgeDupFrac               float64 // repeated dispatches per dispatched device
	fsyncP50, fsyncP95         float64 // µs
	fsyncs, journalBytes       float64 // per committed device
	journalOpenP50             float64 // ms
}

func (t *tracer) lotLayer(bs []burst, devices int) lotLayer {
	var l lotLayer
	hooked := 0
	for _, b := range bs {
		hooked += len(b.devs)
	}
	if len(bs) > 0 {
		l.batchFill = float64(hooked) / float64(len(bs))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var waits, d2c []float64
	unique, dups := 0, 0
	for _, sp := range t.lots {
		if sp.DueUS >= 0 && sp.FirstHookUS >= 0 {
			waits = append(waits, float64(sp.FirstHookUS-sp.DueUS)/1e3)
		}
		for dev, h := range sp.HookUS {
			if c, ok := sp.CommitUS[dev]; ok {
				d2c = append(d2c, float64(c-h)/1e3)
			}
		}
		unique += len(sp.HookUS)
		dups += sp.Dups
	}
	l.queueWaitN = len(waits)
	l.queueWaitP50, l.queueWaitP95 = quantile(waits, 0.5), quantile(waits, 0.95)
	l.dispatchToCommitP50 = median(d2c)
	if unique > 0 {
		l.hedgeDupFrac = float64(dups) / float64(unique)
	}
	fsy := append([]float64(nil), t.fsyncs...)
	l.fsyncP50, l.fsyncP95 = quantile(fsy, 0.5), quantile(fsy, 0.95)
	if devices > 0 {
		l.fsyncs = float64(len(t.fsyncs)) / float64(devices)
		l.journalBytes = float64(t.jbytes) / float64(devices)
	}
	l.journalOpenP50 = median(append([]float64(nil), t.opens...))
	return l
}

// write saves every span as JSON lines, one lot per line, sorted by ID.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]string, 0, len(t.lots))
	for id := range t.lots {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, id := range ids {
		if err := enc.Encode(t.lots[id]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
