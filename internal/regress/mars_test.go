package regress

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// marsCase draws one randomized MARS fitting problem: n rows of d
// features at column scales 1e-6..1e6, with duplicated and constant
// columns mixed in, and a hinge-shaped target that is sometimes noiseless
// or constant, so near-ties and rank-deficient candidate pairs occur.
func marsCase(rng *rand.Rand, n, d int) (*linalg.Matrix, []float64) {
	X := linalg.NewMatrix(n, d)
	scale := make([]float64, d)
	for j := range scale {
		scale[j] = math.Pow(10, -6+12*rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			X.Set(i, j, scale[j]*rng.NormFloat64())
		}
	}
	for j := 1; j < d; j++ {
		switch rng.Intn(6) {
		case 0: // duplicate of an earlier column, possibly rescaled
			src, f := rng.Intn(j), []float64{1, -2, 1e3}[rng.Intn(3)]
			for i := 0; i < n; i++ {
				X.Set(i, j, f*X.At(i, src))
			}
		case 1: // constant column
			v := scale[j] * rng.NormFloat64()
			for i := 0; i < n; i++ {
				X.Set(i, j, v)
			}
		}
	}
	noise := []float64{0, 1e-3, 0.1}[rng.Intn(3)]
	a, b := rng.Intn(d), rng.Intn(d)
	y := make([]float64, n)
	for i := range y {
		za, zb := X.At(i, a)/scale[a], X.At(i, b)/scale[b]
		y[i] = 5 + 2*math.Max(0, za-0.3) - math.Max(0, -zb) + 0.5*za*zb + noise*rng.NormFloat64()
	}
	if rng.Intn(10) == 0 {
		for i := range y {
			y[i] = 3
		}
	}
	return X, y
}

// TestMARSFitBitIdentity asserts the orthogonally scored forward pass
// picks the same bases with Float64bits-equal coefficients as the
// SVD-per-candidate reference on randomized problems: 6..120 rows
// (including 22-row folds), 1..64 features, 3..7 knots, interactions on
// and off, duplicated and constant columns, scales 1e-6..1e6. No fit may
// hold the same basis twice, and a constant target fits with the
// intercept alone.
func TestMARSFitBitIdentity(t *testing.T) {
	check := func(t *testing.T, m MARS, X *linalg.Matrix, y []float64) *marsModel {
		t.Helper()
		got, err := m.Fit(X, y)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceMARS(m).Fit(X, y)
		if err != nil {
			t.Fatal(err)
		}
		if diff := MARSDiff(got, want); diff != "" {
			t.Fatalf("Fit differs from the SVD-per-candidate reference: %s", diff)
		}
		mm := got.(*marsModel)
		seen := make(map[string]int, len(mm.bases))
		for i, b := range mm.bases {
			key := fmt.Sprint(b)
			if j, dup := seen[key]; dup {
				t.Fatalf("bases %d and %d are both %v: %v", j, i, b, mm.bases)
			}
			seen[key] = i
		}
		return mm
	}

	rng := rand.New(rand.NewSource(22))
	trials := 48
	if testing.Short() {
		trials = 16
	}
	for trial := 0; trial < trials; trial++ {
		n := []int{6, 9, 22, 40, 80, 120}[trial%6]
		d := 1 + rng.Intn(64)
		m := MARS{MaxTerms: 3 + rng.Intn(11), Knots: 3 + rng.Intn(5), Interactions: trial%2 == 1}
		if m.Interactions && d > 12 {
			d = 1 + rng.Intn(12) // keeps the reference's pass affordable
		}
		X, y := marsCase(rng, n, d)
		t.Run(fmt.Sprintf("n=%d/d=%d/knots=%d/terms=%d/inter=%v", n, d, m.Knots, m.MaxTerms, m.Interactions), func(t *testing.T) {
			check(t, m, X, y)
		})
	}

	t.Run("constant-y", func(t *testing.T) {
		X, _ := marsCase(rng, 40, 6)
		y := make([]float64, X.Rows)
		for i := range y {
			y[i] = 3
		}
		if mm := check(t, MARS{MaxTerms: 9, Knots: 5}, X, y); len(mm.bases) != 1 {
			t.Fatalf("constant target fit %d bases, want the intercept alone: %v", len(mm.bases), mm.bases)
		}
	})
}
