//go:build !race

package check

// raceEnabled reports whether the race detector is compiled in. The
// 52 M-query half of TestDistanceFingerprint is one goroutine reading
// immutable tables; under -race it costs two minutes and can find nothing.
const raceEnabled = false
