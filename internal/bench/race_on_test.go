//go:build race

package bench

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so fmt's printer cache allocates and an
// allocation count that passes through fmt is not deterministic.
const raceEnabled = true
