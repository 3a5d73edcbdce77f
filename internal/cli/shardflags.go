package cli

import (
	"flag"
	"time"

	"repro/internal/shard"
)

// ShardFlags registers the fan-out tuning flags of a sharded frontend
// (-shard-retries, -shard-retry-backoff, -shard-probe-interval) on the
// default flag set and returns a function that resolves them into a
// partial shard.SourceConfig after flag.Parse — the caller fills in Plan,
// Addrs, and Reg. Centralised here for the same reason as EngineFlags:
// every daemon that embeds the fan-out source gets identical flag names,
// defaults, and help text.
func ShardFlags() func() shard.SourceConfig {
	retries := flag.Int("shard-retries", 2,
		"retries after a failed shard fetch before the row errors (negative disables retries)")
	backoff := flag.Duration("shard-retry-backoff", 50*time.Millisecond,
		"sleep before the first shard retry, doubling per retry")
	probe := flag.Duration("shard-probe-interval", 2*time.Second,
		"active shard health-probe interval (0 relies on fetch outcomes only)")
	return func() shard.SourceConfig {
		r := *retries
		if r == 0 {
			// The config treats 0 as "use the default"; an explicit
			// -shard-retries=0 means no retries, so map it to the
			// config's negative-disables convention.
			r = -1
		}
		return shard.SourceConfig{
			MaxRetries:    r,
			RetryBackoff:  *backoff,
			ProbeInterval: *probe,
		}
	}
}
