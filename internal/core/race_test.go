//go:build race

package core_test

// raceEnabled reports a -race build, whose allocation counts differ.
const raceEnabled = true
