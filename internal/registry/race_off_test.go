//go:build !race

package registry

// raceEnabled reports whether the race detector is compiled in. Alloc
// assertions are skipped under -race: instrumentation allocates, and
// sync.Pool deliberately drops items at random to expose races.
const raceEnabled = false
