//go:build !amd64

package tensor

// Off amd64 there is no exp assembly, and HasFMA answers only for amd64.
func hasFMA() bool { return false }
