//go:build race

package obs

// raceEnabled reports whether the race detector is compiled in; the
// allocation counts a test pins are the plain runtime's.
const raceEnabled = true
