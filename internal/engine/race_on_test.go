//go:build race

package engine

// raceEnabled reports a -race build: sync.Pool then drops a share of Puts
// on purpose, so tests that count recycled allocations skip.
const raceEnabled = true
