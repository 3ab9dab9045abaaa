//go:build race

package storage

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop items at random, so allocation counts are not the program's.
const raceEnabled = true
