package tensor

import "testing"

// SetAVX2 lets the external tests in this directory, which drive whole
// training epochs, run on both paths: the axpy and exp assembly, or the Go
// loops.
func SetAVX2(t *testing.T, on bool) { setAVX2(t, on) }

// SetPoisonRaw turns the raw-allocation poison hook on or off for the rest
// of the test, for the external tests that train whole epochs under it.
func SetPoisonRaw(t *testing.T, on bool) {
	saved := poisonRaw
	poisonRaw = on
	t.Cleanup(func() { poisonRaw = saved })
}
