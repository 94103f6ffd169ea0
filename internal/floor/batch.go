package floor

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/lna"
	"repro/internal/rf"
	"repro/internal/wave"
)

// DefaultBatch is the batch size the serving path uses when none is set:
// one full tile of the device-interleaved envelope kernel (rf's
// defaultInterleaveTile), the fastest K in the batch-size sweep.
const DefaultBatch = 16

// BatchDevice is one entry of a ScreenBatch call: a device plus the index
// and seed ScreenDevice would have received for it.
type BatchDevice struct {
	Index  int
	Device *core.Device
	Seed   int64
}

// batchScreener bundles the reusable kernels of one batched screening call:
// the batched acquirer (shared upconversion and LO state for the engine's
// stimulus, one FFT plan for the whole batch) and the predict scratch. It
// is checked out of a per-(config, stimulus) pool so concurrent tester
// sites each hold their own while amortizing the Prepare cost across calls.
type batchScreener struct {
	ba    *core.BatchAcquirer
	ps    core.PredictScratch
	specs []lna.Specs
	pool  *sync.Pool // nil when the registry was full at construction

	// Stage-1 scratch: the round's attempting devices and the parallel
	// argument arrays handed to CaptureTimeBatch, pooled across rounds.
	att  []*batchDevState
	duts []rf.EnvelopeDevice
	rngs []*rand.Rand
	flts []*rf.InsertionFaults
	caps []core.BatchCapture
}

func (s *batchScreener) release() {
	// Drop references into the finished batch so a pooled screener never
	// pins device state or records beyond the call that produced them.
	for i := range s.att {
		s.att[i] = nil
	}
	for i := range s.duts {
		s.duts[i] = nil
	}
	for i := range s.rngs {
		s.rngs[i] = nil
	}
	for i := range s.flts {
		s.flts[i] = nil
	}
	for i := range s.caps {
		s.caps[i] = core.BatchCapture{}
	}
	if s.pool != nil {
		s.pool.Put(s)
	}
}

// The screener registry is keyed by the state a BatchAcquirer is built
// from. Engines that share Cfg and Stim (WithModel copies, shadow/canary
// variants) share a pool; the cap keeps a process that churns through
// configurations from accumulating pools forever — past it, screeners are
// built per call and simply not pooled.
type screenerKey struct {
	cfg  *core.TestConfig
	stim *wave.PWL
}

var (
	screenerMu    sync.Mutex
	screenerPools = map[screenerKey]*sync.Pool{}
)

const maxScreenerPools = 64

// screener checks a batchScreener out of the registry, constructing one if
// the pool is empty. A nil return means the batched kernel cannot be built
// for this engine (invalid config); the caller falls back to ScreenDevice.
func (e *Engine) screener() *batchScreener {
	key := screenerKey{cfg: e.Cfg, stim: e.Stim}
	screenerMu.Lock()
	pool := screenerPools[key]
	if pool == nil && len(screenerPools) < maxScreenerPools {
		pool = &sync.Pool{}
		screenerPools[key] = pool
	}
	screenerMu.Unlock()
	if pool != nil {
		if s, _ := pool.Get().(*batchScreener); s != nil {
			return s
		}
	}
	ba, err := core.NewBatchAcquirer(e.Cfg, e.Stim)
	if err != nil {
		return nil
	}
	return &batchScreener{ba: ba, pool: pool}
}

// batchDevState is one device's in-flight state across the retest rounds.
type batchDevState struct {
	res *DeviceResult
	dev *core.Device
	rng *rand.Rand

	sig       []float64 // accepted signature
	rec       []float64 // this round's time record (nil: no capture)
	flt       *rf.InsertionFaults
	attempted bool // this round drew an insertion and wants a capture
	resolved  bool // clean capture accepted
	done      bool // no further attempts (panic or expired deadline)
}

// supervised runs fn under the per-device panic contract: a panic is
// recovered into the device's result (fallback bin, structured error, at
// least one insertion) and the device takes no further attempts. Other
// devices in the batch are untouched — supervision still costs one device,
// never the lot.
func (st *batchDevState) supervised(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			st.res.Bin = BinFallback
			st.res.Err = fmt.Sprintf("panic: %v", r)
			if st.res.Insertions == 0 {
				st.res.Insertions = 1
			}
			st.done = true
			st.resolved = false
		}
	}()
	fn()
}

// ScreenBatch screens up to K devices through one pass of the batched
// kernels: the time-domain half of each insertion runs per device through a
// shared-stimulus BatchRunner, every round's FFTs run as one device-batched
// transform, and the surviving signatures are mapped to spec predictions as
// matrix-matrix products. Bins, predictions, fault draws, gate verdicts and
// retest routing are bit-identical to calling ScreenDevice per entry: each
// device consumes its own seed-derived randomness exactly as the serial
// path does, and every numeric stage of the batched kernels is
// bit-compatible with its serial counterpart.
//
// Like ScreenDevice it never panics — a panic inside one device's screening
// routes that device to the fallback bin and the rest of the batch
// continues. ctx bounds each device's wall time the same way: once expired,
// devices stop retesting after their next round boundary. If the batched
// kernel cannot be constructed for this engine's config, ScreenBatch
// degrades to per-device ScreenDevice calls.
func (e *Engine) ScreenBatch(ctx context.Context, batch []BatchDevice, faults *FaultModel) []DeviceResult {
	results := make([]DeviceResult, len(batch))
	if len(batch) == 0 {
		return results
	}
	scr := e.screener()
	if scr == nil {
		for i, bd := range batch {
			results[i] = e.ScreenDevice(ctx, bd.Index, bd.Device, bd.Seed, faults)
		}
		return results
	}
	defer scr.release()

	pol := e.Policy
	pol.defaults()
	maxAttempts := e.MaxAttempts()
	windowS := e.Cfg.StimulusDuration()

	states := make([]*batchDevState, len(batch))
	for i, bd := range batch {
		st := &batchDevState{res: &results[i], dev: bd.Device}
		st.res.Index = bd.Index
		st.res.CleanD = -1
		st.supervised(func() {
			st.res.TruePass = e.TruePass(bd.Device.Specs)
			st.rng = rand.New(rand.NewSource(bd.Seed))
		})
		states[i] = st
	}

	recs := make([][]float64, 0, len(batch))
	live := make([]*batchDevState, 0, len(batch))
	for attempt := 0; attempt < maxAttempts; attempt++ {
		// Stage 1 — per-device insertion bookkeeping (backoff, fault draw)
		// followed by one device-interleaved capture of the whole round.
		// Each device's rng consumption matches the serial path sample for
		// sample: the draw and the noise stream both come from the device's
		// own rng in the serial order, so splitting the round into
		// draw-then-capture phases reorders nothing within a device.
		recs = recs[:0]
		live = live[:0]
		att := scr.att[:0]
		duts := scr.duts[:0]
		rngs := scr.rngs[:0]
		flts := scr.flts[:0]
		for _, st := range states {
			if st.resolved || st.done {
				continue
			}
			st.rec = nil
			st.flt = nil
			st.attempted = false
			st.supervised(func() {
				if attempt > 0 {
					if ctx != nil && ctx.Err() != nil {
						st.res.Err = fmt.Sprintf("deadline: %v after %d insertions", ctx.Err(), st.res.Insertions)
						st.done = true
						return
					}
					st.res.ExtraSettleS += pol.SettleBaseS * math.Pow(pol.BackoffFactor, float64(attempt-1))
				}
				var kind FaultKind
				if faults != nil {
					kind, st.flt = faults.Draw(st.rng, windowS)
				}
				st.res.Insertions++
				st.res.Faults = append(st.res.Faults, kind)
				st.attempted = true
			})
			if st.attempted && !st.done {
				att = append(att, st)
				duts = append(duts, st.dev.Behavioral)
				rngs = append(rngs, st.rng)
				flts = append(flts, st.flt)
			}
		}
		if len(att) > 0 {
			if cap(scr.caps) < len(att) {
				scr.caps = make([]core.BatchCapture, len(att))
			}
			caps := scr.caps[:len(att)]
			scr.ba.CaptureTimeBatch(duts, rngs, flts, caps)
			for ci, st := range att {
				c := &caps[ci]
				st.supervised(func() {
					if c.Panic != nil {
						// Re-raise under this device's supervision: the
						// fallback-bin routing and "panic: %v" message are
						// byte-identical to the serial acquisition panic.
						panic(c.Panic)
					}
					if c.Err != nil {
						st.res.AcqErrors++
						st.res.Verdicts = append(st.res.Verdicts, VerdictInvalid)
						return
					}
					st.rec = c.Rec
				})
				if st.rec != nil && !st.done {
					recs = append(recs, st.rec)
					live = append(live, st)
				}
			}
		}
		scr.att, scr.duts, scr.rngs, scr.flts = att, duts, rngs, flts
		// Stage 2 — one batched FFT turns every surviving capture of the
		// round into its signature.
		var sigs [][]float64
		if len(recs) > 0 {
			func() {
				defer func() {
					if r := recover(); r != nil {
						// A batch-FFT failure costs the round's captures, not
						// the batch: each device records the lost insertion
						// and retests.
						for _, st := range live {
							st.res.AcqErrors++
							st.res.Verdicts = append(st.res.Verdicts, VerdictInvalid)
						}
						live = live[:0]
					}
				}()
				sigs = scr.ba.Signatures(recs)
			}()
		}

		// Stage 3 — gate each signature; clean captures resolve the device.
		allDone := true
		for li, st := range live {
			sig := sigs[li]
			st.supervised(func() {
				verdict := VerdictClean
				d := -1.0
				if e.Gate != nil {
					verdict, d = e.Gate.Classify(sig)
				}
				st.res.Verdicts = append(st.res.Verdicts, verdict)
				if verdict == VerdictClean {
					st.sig = sig
					st.res.CleanD = d
					st.resolved = true
				}
			})
		}
		for _, st := range states {
			if !st.resolved && !st.done {
				allDone = false
			}
		}
		if allDone {
			break
		}
	}

	// Stage 4 — batched prediction over the resolved devices. The matrix
	// path is bit-identical to Calibration.Predict; if it panics (a model
	// missing its fast path misbehaving), each device retries through the
	// serial predict under its own supervision. Every unresolved device —
	// retest budget spent, deadline expired or panicked — falls back.
	resolved := live[:0]
	sigs := recs[:0]
	for _, st := range states {
		if st.resolved {
			resolved = append(resolved, st)
			sigs = append(sigs, st.sig)
		} else {
			st.res.Bin = BinFallback
		}
	}
	if len(resolved) > 0 {
		batchOK := false
		func() {
			defer func() { _ = recover() }()
			X := scr.ps.StackSignatures(sigs)
			if cap(scr.specs) < len(resolved) {
				scr.specs = make([]lna.Specs, len(resolved))
			}
			specs := scr.specs[:len(resolved)]
			e.Cal.PredictBatch(X, specs, &scr.ps)
			for i, st := range resolved {
				st.res.Pred = specs[i]
			}
			batchOK = true
		}()
		for _, st := range resolved {
			st := st
			st.supervised(func() {
				if !batchOK {
					st.res.Pred = e.Cal.Predict(st.sig)
				}
				if e.PredPass(st.res.Pred) {
					st.res.Bin = BinPass
				} else {
					st.res.Bin = BinFail
				}
			})
		}
	}
	return results
}
