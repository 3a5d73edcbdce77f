package qe

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
)

// admission is the bounded front door of the engine: maxInflight slots
// serve concurrently, up to maxQueue more requests may wait (until their
// context expires), and anything beyond that is shed immediately with
// ErrOverloaded. Both levels are exported as gauges so a dashboard shows
// the queue building before the shedding starts.
type admission struct {
	slots    chan struct{}
	maxQueue int64

	queued   *obs.Gauge // requests waiting for a slot
	inflight *obs.Gauge // requests holding a slot
	shed     *obs.Counter
	expired  *obs.Counter
	waitLat  *obs.Histogram
}

func newAdmission(maxInflight, maxQueue int, reg *obs.Registry) *admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{
		slots:    make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),

		queued:   reg.Gauge("qe.queue.depth"),
		inflight: reg.Gauge("qe.inflight"),
		shed:     reg.Counter("qe.shed"),
		expired:  reg.Counter("qe.queue.expired"),
		waitLat:  reg.Histogram("qe.queue.wait"),
	}
}

// tryAcquire claims a free serving slot without waiting.
func (a *admission) tryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		a.inflight.Inc()
		return true
	default:
		return false
	}
}

// acquire claims a serving slot, waiting in the bounded queue when all
// slots are busy. It returns ErrOverloaded (wrapped, with the depth)
// when the queue itself is full, or the context error when the caller's
// deadline expires while queued.
func (a *admission) acquire(ctx context.Context) error {
	if a.tryAcquire() {
		return nil
	}
	if depth := a.queued.Inc(); depth > a.maxQueue {
		a.queued.Dec()
		a.shed.Inc()
		return fmt.Errorf("%w (inflight %d, queued %d)", ErrOverloaded, a.inflight.Value(), a.maxQueue)
	}
	t0 := time.Now()
	select {
	case a.slots <- struct{}{}:
		a.queued.Dec()
		a.waitLat.Observe(time.Since(t0))
		a.inflight.Inc()
		return nil
	case <-ctx.Done():
		a.queued.Dec()
		a.expired.Inc()
		return fmt.Errorf("qe: admission wait: %w", ctx.Err())
	}
}

// release returns a slot.
func (a *admission) release() {
	<-a.slots
	a.inflight.Dec()
}
