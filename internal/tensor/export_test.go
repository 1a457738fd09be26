package tensor

import "testing"

// HasAVX2 and SetAVX2 let the external tests in this directory, which
// drive whole training epochs, run on both axpy paths.
var HasAVX2 = hasAVX2

func SetAVX2(t *testing.T, on bool) { setAVX2(t, on) }
