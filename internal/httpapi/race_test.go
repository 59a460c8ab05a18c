//go:build race

package httpapi

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
