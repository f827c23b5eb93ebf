//go:build !race

package serve

// raceEnabled lets timing-gated tests skip themselves when the race
// detector's instrumentation would swamp what they measure.
const raceEnabled = false
