//go:build race

package telemetry

// raceEnabled reports a -race build, where sync.Pool drops a share of its
// Puts on purpose, so allocation counts do not hold.
const raceEnabled = true
