//go:build linux && race

package e2e

// raceEnabled reports whether the race detector is compiled in; the
// daemons TestMain builds then carry it too.
const raceEnabled = true
