package floor

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

func sameResult(t *testing.T, name string, want, got DeviceResult) {
	t.Helper()
	fail := func(field string, a, b any) {
		t.Fatalf("%s: %s differs: serial %v vs batched %v", name, field, a, b)
	}
	if want.Index != got.Index {
		fail("Index", want.Index, got.Index)
	}
	if want.Bin != got.Bin {
		fail("Bin", want.Bin, got.Bin)
	}
	if want.Insertions != got.Insertions {
		fail("Insertions", want.Insertions, got.Insertions)
	}
	if want.AcqErrors != got.AcqErrors {
		fail("AcqErrors", want.AcqErrors, got.AcqErrors)
	}
	if want.TruePass != got.TruePass {
		fail("TruePass", want.TruePass, got.TruePass)
	}
	if want.Err != got.Err {
		fail("Err", want.Err, got.Err)
	}
	if len(want.Faults) != len(got.Faults) {
		fail("len(Faults)", want.Faults, got.Faults)
	}
	for i := range want.Faults {
		if want.Faults[i] != got.Faults[i] {
			fail("Faults", want.Faults, got.Faults)
		}
	}
	if len(want.Verdicts) != len(got.Verdicts) {
		fail("len(Verdicts)", want.Verdicts, got.Verdicts)
	}
	for i := range want.Verdicts {
		if want.Verdicts[i] != got.Verdicts[i] {
			fail("Verdicts", want.Verdicts, got.Verdicts)
		}
	}
	for _, pair := range []struct {
		field string
		a, b  float64
	}{
		{"ExtraSettleS", want.ExtraSettleS, got.ExtraSettleS},
		{"CleanD", want.CleanD, got.CleanD},
		{"Pred.GainDB", want.Pred.GainDB, got.Pred.GainDB},
		{"Pred.NFDB", want.Pred.NFDB, got.Pred.NFDB},
		{"Pred.IIP3DBm", want.Pred.IIP3DBm, got.Pred.IIP3DBm},
	} {
		if math.Float64bits(pair.a) != math.Float64bits(pair.b) {
			fail(pair.field, pair.a, pair.b)
		}
	}
}

// TestScreenBatchBitIdentity is the tentpole acceptance test: for batch
// sizes K in {1,3,16,64}, gated and ungated, clean floor and heavily
// faulted (so retests and fallbacks occur), every DeviceResult out of
// ScreenBatch must match the serial ScreenDevice result field for field,
// floats bit for bit.
func TestScreenBatchBitIdentity(t *testing.T) {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(47))
	lot, err := core.GeneratePopulation(rng, f.model, 70, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	const lotSeed = 909
	ctx := context.Background()

	for _, gated := range []bool{true, false} {
		eng := f.engine(gated)
		for _, faults := range []*FaultModel{nil, DefaultFaultModel(0.35)} {
			serial := make([]DeviceResult, len(lot))
			for i, d := range lot {
				serial[i] = eng.ScreenDevice(ctx, i, d, core.DeviceSeed(lotSeed, i), faults)
			}
			retested, fellBack := 0, 0
			for _, r := range serial {
				if r.Insertions > 1 {
					retested++
				}
				if r.Bin == BinFallback {
					fellBack++
				}
			}
			if gated && faults != nil && (retested == 0 || fellBack == 0) {
				t.Fatalf("fixture too tame: %d retested, %d fallback — the sweep would not exercise retest routing", retested, fellBack)
			}
			for _, k := range []int{1, 3, 16, 64} {
				for start := 0; start < len(lot); start += k {
					end := start + k
					if end > len(lot) {
						end = len(lot)
					}
					batch := make([]BatchDevice, 0, end-start)
					for i := start; i < end; i++ {
						batch = append(batch, BatchDevice{Index: i, Device: lot[i], Seed: core.DeviceSeed(lotSeed, i)})
					}
					got := eng.ScreenBatch(ctx, batch, faults)
					for j, r := range got {
						name := "gated=" + boolName(gated) + " faulted=" + boolName(faults != nil)
						sameResult(t, name, serial[start+j], r)
					}
				}
			}
		}
	}
}

func boolName(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// TestScreenDeviceCleanDRegression pins the CleanD of an accepted capture
// to the gate distance of that same signature: since Classify now hands the
// distance back, a clean first-insertion device must record exactly
// Distance(signature) — recomputed here from the identical rng stream.
func TestScreenDeviceCleanDRegression(t *testing.T) {
	f := getFixture(t)
	eng := f.engine(true)
	rng := rand.New(rand.NewSource(53))
	lot, err := core.GeneratePopulation(rng, f.model, 12, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	pinned := 0
	for i, d := range lot {
		seed := core.DeviceSeed(4242, i)
		res := eng.ScreenDevice(context.Background(), i, d, seed, nil)
		if res.Bin == BinFallback || res.Insertions != 1 {
			continue
		}
		sig, err := f.cfg.AcquireWithFaults(d.Behavioral, f.stim, rand.New(rand.NewSource(seed)), nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := f.gate.Distance(sig)
		if res.CleanD < 0 {
			t.Fatalf("device %d: accepted capture recorded CleanD %v, want >= 0", i, res.CleanD)
		}
		if math.Float64bits(res.CleanD) != math.Float64bits(want) {
			t.Fatalf("device %d: CleanD %v, want Distance %v", i, res.CleanD, want)
		}
		pinned++
	}
	if pinned < 8 {
		t.Fatalf("only %d/12 devices resolved on first insertion — fixture cannot pin CleanD", pinned)
	}
}

// TestScreenBatchUngatedCleanD: the ungated engine must keep reporting
// CleanD == -1 (no gate, no distance), on both paths.
func TestScreenBatchUngatedCleanD(t *testing.T) {
	f := getFixture(t)
	eng := f.engine(false)
	rng := rand.New(rand.NewSource(59))
	lot, err := core.GeneratePopulation(rng, f.model, 4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]BatchDevice, len(lot))
	for i, d := range lot {
		batch[i] = BatchDevice{Index: i, Device: d, Seed: core.DeviceSeed(7, i)}
	}
	for _, res := range eng.ScreenBatch(context.Background(), batch, nil) {
		if res.CleanD != -1 {
			t.Fatalf("device %d: ungated CleanD %v, want -1", res.Index, res.CleanD)
		}
		if res.Bin == BinFallback {
			t.Fatalf("device %d: clean ungated screen fell back: %s", res.Index, res.Err)
		}
	}
}

// TestScreenBatchAllocBudget guards the per-device allocation count of the
// batched screen. The budget is deliberately loose — it exists to catch a
// reintroduced per-predict or per-FFT allocation storm, not to pin the
// allocator.
func TestScreenBatchAllocBudget(t *testing.T) {
	f := getFixture(t)
	eng := f.engine(true)
	rng := rand.New(rand.NewSource(61))
	const k = 16
	lot, err := core.GeneratePopulation(rng, f.model, k, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]BatchDevice, len(lot))
	for i, d := range lot {
		batch[i] = BatchDevice{Index: i, Device: d, Seed: core.DeviceSeed(17, i)}
	}
	ctx := context.Background()
	eng.ScreenBatch(ctx, batch, nil) // warm the screener pool and FFT plans
	allocs := testing.AllocsPerRun(3, func() {
		eng.ScreenBatch(ctx, batch, nil)
	})
	perDevice := allocs / k
	const budget = 600
	if perDevice > budget {
		t.Fatalf("batched screen allocates %.0f objects/device (budget %d)", perDevice, budget)
	}
}

// TestScreenBatchDeadlineBitIdentity: under an already-expired deadline
// every device still gets its first insertion, and a device that would
// retest stops with a deadline error and falls back — on the batched path
// exactly as on the serial one, field for field.
func TestScreenBatchDeadlineBitIdentity(t *testing.T) {
	f := getFixture(t)
	eng := f.engine(true)
	lot, err := core.GeneratePopulation(rand.New(rand.NewSource(71)), f.model, 32, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	const lotSeed = 313
	faults := DefaultFaultModel(0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch := make([]BatchDevice, len(lot))
	for i, d := range lot {
		batch[i] = BatchDevice{Index: i, Device: d, Seed: core.DeviceSeed(lotSeed, i)}
	}
	got := eng.ScreenBatch(ctx, batch, faults)
	deadlined := 0
	for i, bd := range batch {
		want := eng.ScreenDevice(ctx, bd.Index, bd.Device, bd.Seed, faults)
		sameResult(t, "expired deadline", want, got[i])
		if want.Err != "" {
			deadlined++
		}
	}
	if deadlined == 0 {
		t.Fatal("fixture too tame: a 50% fault load under an expired deadline cut no device short")
	}
}
