package cli

import (
	"flag"
	"time"

	"repro/internal/par"
	"repro/internal/qe"
)

// EngineFlags registers the query-engine tuning flags shared by serving
// binaries (-max-inflight, -queue-depth, -deadline, -max-batch-pairs) on
// the default flag set and returns a function that resolves them into a
// qe.Config after flag.Parse. Centralising them here keeps the flag
// names, defaults, and help text identical across every daemon that
// embeds the engine.
func EngineFlags() func() qe.Config {
	maxInflight := flag.Int("max-inflight", par.Workers(),
		"concurrently served queries (defaults to the worker count)")
	queueDepth := flag.Int("queue-depth", 64,
		"admitted requests that may wait beyond max-inflight before load-shedding (0 sheds immediately)")
	deadline := flag.Duration("deadline", 2*time.Second,
		"per-request deadline covering queue wait and row computation (0 disables)")
	maxBatchPairs := flag.Int64("max-batch-pairs", qe.DefaultMaxBatchPairs,
		"largest sources×targets result matrix one batch may request (negative removes the cap)")
	return func() qe.Config {
		return qe.Config{
			MaxInflight:   *maxInflight,
			QueueDepth:    *queueDepth,
			Deadline:      *deadline,
			MaxBatchPairs: *maxBatchPairs,
		}
	}
}
