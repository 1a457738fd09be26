package tensor

import "testing"

// SetAVX2 lets the external tests in this directory, which drive whole
// training epochs, run on both axpy paths.
func SetAVX2(t *testing.T, on bool) { setAVX2(t, on) }
