package serve

import (
	"context"
	"sync"
	"time"
)

// lazyDeadline is context.WithTimeout(parent, timeout) that arms its
// timer only when somebody asks for Done or Deadline — that is, when a
// lookup actually waits. A GET answered from the hit view never does, so
// the request the server exists to make cheap pays for one small object
// instead of a timer context, its runtime timer, a cancel closure and
// the stop that undoes them. The timeout counts from arming, which on
// the waiting path is microseconds after the request began.
type lazyDeadline struct {
	context.Context // the request's context
	timeout         time.Duration

	mu      sync.Mutex
	armed   context.Context
	cancel  context.CancelFunc
	stopped bool
	err     error // Err() as of stop
}

func (c *lazyDeadline) arm() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.armed == nil {
		c.armed, c.cancel = context.WithTimeout(c.Context, c.timeout)
		if c.stopped {
			c.cancel()
		}
	}
	return c.armed
}

func (c *lazyDeadline) Done() <-chan struct{} { return c.arm().Done() }

func (c *lazyDeadline) Deadline() (time.Time, bool) { return c.arm().Deadline() }

// Err reports why the context ended: the timeout or the parent's
// cancellation while it ran, and after stop whatever held at that
// moment — not the stop itself, so the handler can still tell a query
// that timed out from one that failed.
func (c *lazyDeadline) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.stopped:
		return c.err
	case c.armed != nil:
		return c.armed.Err()
	}
	return c.Context.Err()
}

// stop releases the timer, if one was armed. The handler calls it when
// the lookup returns.
func (c *lazyDeadline) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	c.err = c.Context.Err()
	if c.armed != nil {
		c.err = c.armed.Err()
		c.cancel()
	}
	c.stopped = true
}
