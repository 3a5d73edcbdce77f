package qe

// SwapSource atomically replaces the engine's row source and evicts every
// cached row whose source is marked stale. It is the serving-side half of
// apsp's incremental delta machinery: ApplyDelta returns a new oracle plus
// a stale-vertex mask (every source in an old connected component touched
// by the script), and SwapSource installs the oracle while dropping
// exactly those rows — untouched components keep serving cache hits.
//
// stale is indexed by the OLD source's vertex IDs; a nil or short mask
// treats unlisted sources as fresh. The new source must not have fewer
// vertices than the old one (delta semantics only grow the vertex set).
//
// Concurrency: the swap and the in-flight epoch bump share the engine
// lock, so a row build that raced the swap is either cached before it
// (and evicted here) or rejected by its stale epoch — a row visible in
// the cache after SwapSource returns is computed entirely against one
// source, never a mix. In-flight queries that already hold an old row
// or the old source's pair method return its (consistently old) answers;
// subsequent queries see the new source. Evicted rows are accounted in qe.cache.evictions; the count of
// rows dropped by this call is returned.
func (e *Engine) SwapSource(src RowSource, stale []bool) int {
	e.mu.Lock()
	e.setSource(src)
	e.epoch++
	e.mu.Unlock()
	if e.cache == nil {
		return 0
	}
	return e.cache.removeIf(func(s int32) bool {
		return int(s) < len(stale) && stale[s]
	})
}
