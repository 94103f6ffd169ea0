//go:build race

package regress_test

// raceDetector reports whether the tests run under -race, which slows the
// SVD-per-candidate reference about tenfold.
const raceDetector = true
