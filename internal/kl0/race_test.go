//go:build race

package kl0

// raceEnabled reports a -race build, whose allocation counts differ.
const raceEnabled = true
