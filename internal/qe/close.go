package qe

import (
	"context"
	"fmt"
)

// Close shuts the engine down: new Query and Batch calls fail fast with
// ErrClosed and in-flight requests finish normally. Close claims all
// admission slots itself, so it returns only after the engine is drained;
// ctx bounds that wait.
//
// Close exists for hosts that own many engines — the multi-tenant graph
// registry evicts an idle oracle by closing its engine — so the usual
// caller invokes it only after its own accounting says no request can
// still reach the engine, making the drain instantaneous. A request that
// slipped past the closed check before the flag landed completes
// normally (Close waits for it); one that arrives after fails with
// ErrClosed and never touches the admission queue.
//
// Close is idempotent: the first call drains, later calls return nil
// immediately (even while the first is still waiting).
func (e *Engine) Close(ctx context.Context) error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Claiming every slot is the drain barrier: each in-flight request
	// holds one slot for its whole lifetime, so once all cap(slots) sends
	// succeed no request is mid-row anywhere in the engine.
	for i := 0; i < cap(e.adm.slots); i++ {
		select {
		case e.adm.slots <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("qe: close drain: %w", ctx.Err())
		}
	}
	return nil
}
