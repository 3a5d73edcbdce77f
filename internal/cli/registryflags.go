package cli

import (
	"flag"

	"repro/internal/qe"
	"repro/internal/registry"
)

// RegistryFlags registers the multi-tenant registry flags (-snapshot-dir,
// -max-graphs) on the default flag set and returns a function resolving
// them — together with the engine flags' resolved config as the per-graph
// limit defaults — into a registry.Config after flag.Parse. The engine
// argument is typically the resolver EngineFlags returned, so one flag
// surface (-max-inflight, -deadline, …) tunes both the single-graph engine
// and every engine the registry hydrates.
func RegistryFlags(engine func() qe.Config) func() registry.Config {
	dir := flag.String("snapshot-dir", "",
		"serve every <name>.snap in this directory as a named graph under /v1/graphs/{name} (multi-tenant mode)")
	maxGraphs := flag.Int("max-graphs", registry.DefaultMaxGraphs,
		"resident hydrated graphs before LRU eviction (the pinned default graph is not counted)")
	return func() registry.Config {
		return registry.Config{
			Dir:       *dir,
			MaxGraphs: *maxGraphs,
			Engine:    engine(),
		}
	}
}
