package floor

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
)

func synthSignatures(n, m int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	sigs := make([][]float64, n)
	for i := range sigs {
		s := make([]float64, m)
		for j := range s {
			s[j] = float64(j)*0.1 + rng.NormFloat64()
		}
		sigs[i] = s
	}
	return sigs
}

// TestGateJSONRoundTrip: a gate rebuilt from its artifact form must
// classify and measure distances bit-identically — otherwise a lot pinned
// to a persisted calibration version could bin differently after a
// restart.
func TestGateJSONRoundTrip(t *testing.T) {
	sigs := synthSignatures(24, 10, 3)
	g, err := FitGate(sigs, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Gate
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Components() != g.Components() {
		t.Fatalf("components: got %d want %d", back.Components(), g.Components())
	}
	probes := append(sigs, synthSignatures(16, 10, 99)...)
	for i, s := range probes {
		d1, r1 := g.Distance(s)
		d2, r2 := back.Distance(s)
		if d1 != d2 || r1 != r2 {
			t.Fatalf("probe %d: distance (%v,%v) != (%v,%v)", i, d2, r2, d1, r1)
		}
		v1, dc1 := g.Classify(s)
		v2, dc2 := back.Classify(s)
		if v1 != v2 || dc1 != dc2 {
			t.Fatalf("probe %d: classification changed after round-trip", i)
		}
	}
}

// TestGateUnmarshalRejectsGarbage: a scribbled artifact must be refused,
// not half-applied.
func TestGateUnmarshalRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`{}`,
		`{"basis":{"Rows":0,"Cols":0}}`,
		`{"mean":[1,2],"sigma":[1],"basis":{"Rows":2,"Cols":1,"Data":[1,0]},"comp_sigma":[1],"res_sigma":1}`,
		`{"mean":[1,2],"sigma":[1,1],"basis":{"Rows":2,"Cols":1,"Data":[1,0]},"comp_sigma":[1],"res_sigma":0}`,
	} {
		var g Gate
		if err := json.Unmarshal([]byte(bad), &g); err == nil {
			t.Fatalf("unmarshal %q succeeded, want error", bad)
		}
	}
}

// TestDriftBaselineTrainZRoundTrip: FitGate stores the training set's own
// distances, standardized and sorted, as the drift watchdog's rank
// baseline, and the artifact form carries them bit-exactly.
func TestDriftBaselineTrainZRoundTrip(t *testing.T) {
	sigs := synthSignatures(24, 10, 3)
	g, err := FitGate(sigs, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(sigs))
	for i, s := range sigs {
		d, _ := g.Distance(s)
		want[i] = (d - g.TrainMeanD) / g.TrainSigmaD
	}
	sort.Float64s(want)
	if !reflect.DeepEqual(g.TrainZ, want) {
		t.Fatalf("TrainZ %v, want the sorted standardized training distances %v", g.TrainZ, want)
	}

	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Gate
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.TrainZ) != len(g.TrainZ) {
		t.Fatalf("train_z: %d values back, want %d", len(back.TrainZ), len(g.TrainZ))
	}
	for i := range g.TrainZ {
		if math.Float64bits(back.TrainZ[i]) != math.Float64bits(g.TrainZ[i]) {
			t.Fatalf("train_z[%d]: %v != %v after round-trip", i, back.TrainZ[i], g.TrainZ[i])
		}
	}

	// A scribbled, unsorted baseline would break the rank lookup.
	var st map[string]json.RawMessage
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	st["train_z"] = json.RawMessage(`[1,0]`)
	bad, _ := json.Marshal(st)
	if err := json.Unmarshal(bad, &back); err == nil {
		t.Fatal("unsorted train_z decoded, want error")
	}
}

// TestDriftBaselinePreChangeArtifact: a gate artifact written before the
// rank baseline existed has no train_z. It must still decode, fingerprint
// the same, and screen a lot bit-identically; only the watchdog falls
// back to the raw standardized distance.
func TestDriftBaselinePreChangeArtifact(t *testing.T) {
	f := getFixture(t)
	data, err := json.Marshal(f.gate)
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if _, ok := st["train_z"]; !ok {
		t.Fatal("artifact carries no train_z")
	}
	delete(st, "train_z")
	old, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back Gate
	if err := json.Unmarshal(old, &back); err != nil {
		t.Fatalf("pre-change artifact: %v", err)
	}
	if back.TrainZ != nil {
		t.Fatalf("pre-change artifact decoded a TrainZ: %v", back.TrainZ)
	}

	eng := f.engine(true)
	oldEng := f.engine(true)
	oldEng.Gate = &back
	if eng.Fingerprint() != oldEng.Fingerprint() {
		t.Fatalf("fingerprint %x differs from the pre-change artifact's %x", eng.Fingerprint(), oldEng.Fingerprint())
	}
	lot, err := core.GeneratePopulation(rand.New(rand.NewSource(5)), f.model, 24, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	faults := DefaultFaultModel(0.15)
	want, err := eng.RunLot(7, lot, faults)
	if err != nil {
		t.Fatal(err)
	}
	got, err := oldEng.RunLot(7, lot, faults)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the pre-change artifact's gate screens the lot differently")
	}
}
