//go:build race

package main

// raceEnabled is set when the tests run under the race detector, whose
// instrumentation slows some layers far more than others.
const raceEnabled = true
