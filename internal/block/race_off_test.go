//go:build !race

package block

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
