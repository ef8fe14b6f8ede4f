//go:build race

package netsim

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of the items put back, so allocation pins that
// rest on a pool do not hold under it.
const raceEnabled = true
