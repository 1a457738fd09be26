//go:build race

package storage

// raceEnabled reports a build under the race detector, which makes
// sync.Pool drop a quarter of the values put back at random, so a pooled
// buffer's zero-allocation steady state cannot be measured there.
const raceEnabled = true
