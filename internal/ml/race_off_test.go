//go:build !race

package ml

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
