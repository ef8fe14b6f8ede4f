//go:build !race

package netsim

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
