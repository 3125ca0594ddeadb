//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in. The
// full-suite golden runs every experiment; under -race that is minutes
// of instrumented simulation, so it skips itself and CI runs it in a
// separate non-race step.
const raceEnabled = true
