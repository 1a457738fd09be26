package tensor

import "testing"

// SetAVX2 lets the external tests in this directory, which drive whole
// training epochs, run on both paths: the axpy and exp assembly, or the Go
// loops.
func SetAVX2(t *testing.T, on bool) { setAVX2(t, on) }
