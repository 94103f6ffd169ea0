package core

import (
	"math/rand"

	"repro/internal/dsp"
	"repro/internal/linalg"
	"repro/internal/lna"
	"repro/internal/parallel"
	"repro/internal/regress"
	"repro/internal/rf"
	"repro/internal/wave"
)

// BatchAcquirer is the batched form of TestConfig.AcquireWithFaults: the
// time-domain half of an acquisition (envelope run, noise, quantization,
// window, zero-pad) is produced per device through an rf.BatchRunner, and
// the FFT half runs once over the whole batch through the cached-plan
// batched spectrum kernel. Signatures are bit-identical to the serial
// acquisition: the time-domain stages reuse the exact serial code, and the
// magnitudes of the batched FFT match MagnitudeSpectrum bin for bin.
//
// A BatchAcquirer owns per-device scratch and is not safe for concurrent
// use: give each worker its own.
type BatchAcquirer struct {
	cfg    *TestConfig
	runner *rf.BatchRunner
	padN   int
	runs   []rf.DeviceRun // persistent slots: capture buffers pool across calls
}

// NewBatchAcquirer validates cfg and prepares the shared per-stimulus state
// for stim.
func NewBatchAcquirer(cfg *TestConfig, stim *wave.PWL) (*BatchAcquirer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	runner, err := rf.NewBatchRunner(cfg.Board)
	if err != nil {
		return nil, err
	}
	runner.Prepare(stim.At)
	return &BatchAcquirer{cfg: cfg, runner: runner, padN: dsp.NextPow2(cfg.Board.CaptureN)}, nil
}

// BatchCapture is one device's outcome of CaptureTimeBatch. Exactly one of
// Rec, Err, Panic is meaningful: check Panic first (the caller re-raises it
// under its own per-device supervision so panic routing matches the serial
// path), then Err, then use Rec. Rec never aliases the acquirer's scratch.
type BatchCapture struct {
	Rec   []float64
	Err   error
	Panic any
}

// CaptureTimeBatch runs a batch of devices up to (and including) the
// windowed, zero-padded time records the FFT consumes. The envelope tails
// run device-interleaved through the runner's SoA kernel (grouped by
// occupancy signature, serial-tail fallback per device) and draw no
// randomness; then noise, quantization, window and zero-pad run per device
// in slot order. Each device's stage order and rng consumption match its
// own serial AcquireWithFaults call exactly, so per-device noise streams
// are preserved — and one shared rng in every slot is consumed in the
// order a serial loop over the slots would consume it. duts, rngs, flts
// and out must have equal length. The call is total: every per-device
// failure (error or recovered panic) lands in its own slot and never
// poisons a neighbor.
func (ba *BatchAcquirer) CaptureTimeBatch(duts []rf.EnvelopeDevice, rngs []*rand.Rand, flts []*rf.InsertionFaults, out []BatchCapture) {
	k := len(duts)
	if cap(ba.runs) < k {
		runs := make([]rf.DeviceRun, k)
		copy(runs, ba.runs)
		ba.runs = runs
	}
	ba.runs = ba.runs[:k]
	for i := range ba.runs {
		ba.runs[i].DUT = duts[i]
		ba.runs[i].Flt = flts[i]
	}
	ba.runner.RunDevices(ba.runs)
	for i := range ba.runs {
		out[i] = BatchCapture{}
		if ba.runs[i].Panic != nil {
			out[i].Panic = ba.runs[i].Panic
			continue
		}
		if ba.runs[i].Err != nil {
			out[i].Err = ba.runs[i].Err
			continue
		}
		ba.finishCapture(i, rngs[i], &out[i])
	}
}

// finishCapture runs the post-envelope stages (noise, quantize, window,
// pad) for one slot under per-device panic recovery. Every stage returns a
// fresh slice, so Rec is independent of the pooled capture scratch.
func (ba *BatchAcquirer) finishCapture(i int, rng *rand.Rand, out *BatchCapture) {
	defer func() {
		if r := recover(); r != nil {
			out.Panic = r
		}
	}()
	y := ba.runs[i].Capture
	if rng != nil && ba.cfg.NoiseSigmaV > 0 {
		y = wave.AddNoise(rng, y, ba.cfg.NoiseSigmaV)
	}
	if ba.cfg.DigitizerBits > 0 {
		y = quantize(y, ba.cfg.DigitizerBits, ba.cfg.digitizerFullScale())
	}
	windowed := ba.cfg.Window.Apply(y)
	out.Rec = dsp.ZeroPad(windowed, ba.padN)
}

// Signatures turns a batch of CaptureTimeBatch records into feature signatures:
// one plan lookup and one contiguous scratch region drive every FFT, then
// each magnitude spectrum is band-averaged exactly like the serial path.
// Records must all come from the same configuration (equal lengths).
func (ba *BatchAcquirer) Signatures(records [][]float64) [][]float64 {
	specs := dsp.MagnitudeSpectrumBatch(records)
	out := make([][]float64, len(specs))
	for i, sp := range specs {
		out[i] = compressSpectrum(sp, ba.cfg.FeatureBins)
	}
	return out
}

// acquireBatch is the window size of the batched engineering-phase
// acquisitions (training and validation sets): the serving path's batch
// (floor.DefaultBatch), one tile of the interleaved envelope kernel.
const acquireBatch = 16

// acquireAll is a loop of serial Acquire calls run through one
// BatchAcquirer: one CaptureTimeBatch over every device, then one batched
// FFT. rngs[i] supplies device i's measurement noise (nil = noise-free);
// one shared rng may fill every slot, since CaptureTimeBatch draws noise
// slot by slot. Signatures are Float64bits-identical to the serial loop.
// On failure it returns the first failing device's index and error; a
// recovered per-device panic is re-raised, as the serial Acquire would
// raise it.
func acquireAll(cfg *TestConfig, stim *wave.PWL, duts []rf.EnvelopeDevice, rngs []*rand.Rand) ([][]float64, int, error) {
	if len(duts) == 0 {
		return nil, 0, nil
	}
	ba, err := NewBatchAcquirer(cfg, stim)
	if err != nil {
		return nil, 0, err
	}
	caps := make([]BatchCapture, len(duts))
	ba.CaptureTimeBatch(duts, rngs, make([]*rf.InsertionFaults, len(duts)), caps)
	recs := make([][]float64, len(caps))
	for i, c := range caps {
		if c.Panic != nil {
			panic(c.Panic)
		}
		if c.Err != nil {
			return nil, i, c.Err
		}
		recs[i] = c.Rec
	}
	return ba.Signatures(recs), 0, nil
}

// acquireWindows runs acquireAll over acquireBatch-device windows of devices
// on a parallel.ForEach pool. With one worker the windows run inline in
// order, which a shared rng in rngs requires. On failure it returns the
// first failing device's index and error.
func acquireWindows(workers int, cfg *TestConfig, stim *wave.PWL, devices []*Device, rngs []*rand.Rand) ([][]float64, int, error) {
	n := len(devices)
	nw := (n + acquireBatch - 1) / acquireBatch
	sigs := make([][]float64, n)
	bad := make([]int, nw)
	errs := make([]error, nw)
	parallel.ForEach(workers, nw, func(w int) error {
		s, e := w*acquireBatch, min((w+1)*acquireBatch, n)
		duts := make([]rf.EnvelopeDevice, e-s)
		for i, d := range devices[s:e] {
			duts[i] = d.Behavioral
		}
		got, b, err := acquireAll(cfg, stim, duts, rngs[s:e])
		copy(sigs[s:e], got)
		bad[w], errs[w] = s+b, err
		return err
	})
	for w, err := range errs {
		if err != nil {
			return nil, bad[w], err
		}
	}
	return sigs, 0, nil
}

// PredictScratch holds the reusable buffers of the scratch and batched
// calibration predict paths. A zero value is ready to use; not safe for
// concurrent use.
type PredictScratch struct {
	row   regress.Scratch
	batch regress.BatchScratch
	col   []float64
	x     *linalg.Matrix
}

// PredictScratch is Calibration.Predict without per-call allocations: each
// spec model that implements the scratch fast path predicts through reused
// buffers, bit-identical to Predict. Models without the fast path (none of
// the built-in families) fall back to Predict.
func (c *Calibration) PredictScratch(signature []float64, s *PredictScratch) lna.Specs {
	var out lna.Specs
	v := [3]*float64{&out.GainDB, &out.NFDB, &out.IIP3DBm}
	for i, m := range c.Models {
		if sp, ok := m.(regress.ScratchPredictor); ok {
			*v[i] = sp.PredictScratch(signature, &s.row)
		} else {
			*v[i] = m.Predict(signature)
		}
	}
	return out
}

// PredictBatch maps K stacked signatures to K spec predictions, pushing the
// whole batch through each model stage as matrix-matrix products. out must
// have X.Rows entries; out[i] is bit-identical to Predict of row i.
func (c *Calibration) PredictBatch(X *linalg.Matrix, out []lna.Specs, s *PredictScratch) {
	n := X.Rows
	if cap(s.col) < n {
		s.col = make([]float64, n)
	}
	col := s.col[:n]
	for si, m := range c.Models {
		if bp, ok := m.(regress.BatchPredictor); ok {
			bp.PredictBatch(X, col, &s.batch)
		} else {
			for i := 0; i < n; i++ {
				col[i] = m.Predict(X.Data[i*X.Cols : (i+1)*X.Cols])
			}
		}
		for i := 0; i < n; i++ {
			switch si {
			case 0:
				out[i].GainDB = col[i]
			case 1:
				out[i].NFDB = col[i]
			default:
				out[i].IIP3DBm = col[i]
			}
		}
	}
}

// StackSignatures packs equal-length signatures into the K x m matrix
// PredictBatch consumes, reusing the scratch matrix across batches.
func (s *PredictScratch) StackSignatures(sigs [][]float64) *linalg.Matrix {
	n := 0
	m := 0
	for _, sig := range sigs {
		n++
		m = len(sig)
	}
	if s.x == nil || cap(s.x.Data) < n*m {
		s.x = linalg.NewMatrix(n, m)
	}
	s.x.Rows, s.x.Cols = n, m
	s.x.Data = s.x.Data[:n*m]
	for i, sig := range sigs {
		copy(s.x.Data[i*m:(i+1)*m], sig)
	}
	return s.x
}
