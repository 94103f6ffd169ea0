package rig

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// rigDigest hashes the Float64bits of everything the engineering phase
// computes: the stimulus levels, the GA objective trace, every training
// signature, the calibration's CV scores and chosen trainers, and every
// validation prediction.
func rigDigest(r *Rig) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range r.Stim.Levels {
		put(v)
	}
	for _, v := range r.Trace {
		put(v)
	}
	for _, td := range r.Train {
		for _, v := range td.Signature {
			put(v)
		}
	}
	for _, v := range r.Cal.CVRMS {
		put(v)
	}
	for _, name := range r.Cal.Trainers {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	for _, sr := range r.Validation.Specs {
		for _, p := range sr.Points {
			put(p.Predicted)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBuildGolden pins the engineering phase of both device families to
// golden values: the engine fingerprint and a digest of the stimulus, GA
// trace, training signatures, calibration and validation predictions. The
// result must not depend on the worker count.
func TestBuildGolden(t *testing.T) {
	golden := []struct {
		dut         string
		fingerprint uint64
		digest      string
	}{
		{"lna", 0x1a702ba876c3b3d2, "d320fd312a36d6ef09b0c448ab289d5639dad2c4be5a78254a6a46c7b2899413"},
		{"rf2401", 0x39b0e1790edef718, "17a9aacd9911c860c0635cd47aee4bf0aea97bee5b510fb67f7d41592b9d1f53"},
	}
	for _, g := range golden {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", g.dut, workers), func(t *testing.T) {
				r, err := Build(Params{DUT: g.dut, Seed: 1, Quick: true, Produce: 256, FaultP: 0.10, Workers: workers}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if fp := r.Engine.Fingerprint(); fp != g.fingerprint {
					t.Errorf("engine fingerprint %#x, want %#x", fp, g.fingerprint)
				}
				if d := rigDigest(r); d != g.digest {
					t.Errorf("engineering-phase digest %s, want %s", d, g.digest)
				}
			})
		}
	}
}
