package tensor

// hasFMA reports whether math.Exp takes its fused multiply-add path on this
// CPU (fma_amd64.s).
func hasFMA() bool
