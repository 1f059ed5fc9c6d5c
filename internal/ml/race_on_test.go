//go:build race

package ml

// raceEnabled reports whether the race detector is compiled in. Tests
// that count allocations skip under it: the instrumented build allocates
// where the real one does not, and drops pooled scratch at random.
const raceEnabled = true
