package taxonomy

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// CoalescerOptions tunes a CoalescingResolver. The zero value gets defaults.
type CoalescerOptions struct {
	// MaxBatch caps the names in one upstream batch: an expected-order
	// batch stops filling there, and a window dispatches immediately once
	// this many calls are queued (default 64).
	MaxBatch int
	// MaxDelay bounds how long a queued call waits for companions before the
	// batch is dispatched anyway (default 2ms).
	MaxDelay time.Duration
}

func (o *CoalescerOptions) defaults() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
}

// Coalesce wraps a batch-capable resolver so single-name Resolve calls — the
// workflow engine's Parallel workers each resolving their own iteration
// element — share upstream round trips instead of issuing one each. A
// resolver with no batch capability is returned unchanged: there is nothing
// to share.
func Coalesce(inner Resolver, opts CoalescerOptions) Resolver {
	dbr, ok := inner.(DetailedBatchResolver)
	if !ok {
		br, ok2 := inner.(BatchResolver)
		if !ok2 {
			return inner
		}
		dbr = detailFromBatch{br}
	}
	opts.defaults()
	return &CoalescingResolver{inner: inner, detail: dbr, opts: opts}
}

// CoalescingResolver shares upstream batches between Resolve calls, along
// one of two paths.
//
// Expected order: once Expect has named the calls to come (a detection run
// knows its whole name list before the first element executes), a call for
// a name on that list that is neither answered nor in flight leads a batch
// filled, up to MaxBatch, with the names that follow it on the list and are
// neither answered nor in flight either. Later calls then find their answer
// in flight or already landed, so N names cost about N/MaxBatch round trips
// whatever the caller concurrency. A landed availability failure is never
// served to a call that arrives after it: that call leads a fresh batch,
// just as the cache shares an outage with its waiters but never caches it.
//
// Window: any other call arriving while nothing is in flight leads its batch
// immediately in its own goroutine — an idle resolver adds zero latency.
// Calls arriving while a batch is in flight queue up; the in-flight
// dispatcher drains them as its next batch when it returns, a MaxDelay timer
// flushes a queue that never got a dispatcher, and a queue reaching MaxBatch
// flushes without waiting for either.
type CoalescingResolver struct {
	inner  Resolver
	detail DetailedBatchResolver
	opts   CoalescerOptions

	mu       sync.Mutex
	pending  []*coalesceCall
	inFlight bool
	timer    *time.Timer

	// order is the expected call order (distinct names), index maps a name
	// to its position, and ahead[i] is the call that fetched order[i] (nil
	// until one does).
	order []string
	index map[string]int
	ahead []*coalesceCall

	batches  atomic.Int64
	names    atomic.Int64
	maxBatch atomic.Int64
}

type coalesceCall struct {
	ctx  context.Context
	name string
	done chan struct{}
	res  BatchResult
}

// Expect declares the order in which names will be resolved, replacing any
// earlier order. It starts nothing: the first Resolve of a listed name leads
// the first batch. Repeated names keep their first position.
func (c *CoalescingResolver) Expect(order []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order = make([]string, 0, len(order))
	c.index = make(map[string]int, len(order))
	for _, name := range order {
		if _, dup := c.index[name]; !dup {
			c.index[name] = len(c.order)
			c.order = append(c.order, name)
		}
	}
	c.ahead = make([]*coalesceCall, len(c.order))
}

// Resolve implements Resolver by joining (or leading) a shared batch. The
// caller's context governs only its own wait: the dispatched batch runs on a
// detached context, because it serves other callers too and is already
// time-bounded by the resilience layer's batch budget. An abandoned call's
// result still lands in the cache for the next tick.
func (c *CoalescingResolver) Resolve(ctx context.Context, name string) (Resolution, error) {
	c.mu.Lock()
	if i, ok := c.index[name]; ok {
		call := c.ahead[i]
		if !servable(call) {
			batch := c.fillLocked(ctx, i)
			call = batch[0]
			go c.resolveBatch(batch)
		}
		c.mu.Unlock()
		return await(ctx, call)
	}
	call := &coalesceCall{ctx: ctx, name: name, done: make(chan struct{})}
	c.pending = append(c.pending, call)
	switch {
	case !c.inFlight:
		batch := c.takeLocked()
		c.inFlight = true
		c.mu.Unlock()
		// Idle resolver: dispatch immediately (no delay-timer wait). The
		// dispatch still runs in its own goroutine so this caller's ctx can
		// cut its wait short even while it leads the batch.
		go c.dispatch(batch)
	case len(c.pending) >= c.opts.MaxBatch:
		batch := c.takeLocked()
		c.mu.Unlock()
		go c.dispatchOnce(batch) // full batch: flush alongside the in-flight one
	default:
		if c.timer == nil {
			c.timer = time.AfterFunc(c.opts.MaxDelay, c.flushAfterDelay)
		}
		c.mu.Unlock()
	}
	return await(ctx, call)
}

// await waits for call's batch to land or for ctx to end, whichever is
// first.
func await(ctx context.Context, call *coalesceCall) (Resolution, error) {
	select {
	case <-call.done:
		return call.res.Resolution, call.res.Err
	case <-ctx.Done():
		return Resolution{Query: call.name, Status: StatusUnknown}, ctx.Err()
	}
}

// servable reports whether an expected-order call may answer a caller
// arriving now: it is in flight (its outcome is shared, whatever it is) or
// it landed with anything but an availability failure.
func servable(call *coalesceCall) bool {
	if call == nil {
		return false
	}
	select {
	case <-call.done:
		return !isAvailabilityFailure(call.res.Err)
	default:
		return true
	}
}

// fillLocked claims order[i] and then, up to MaxBatch, each later name that
// is neither answered nor in flight, as one batch led by ctx. Caller holds
// c.mu.
func (c *CoalescingResolver) fillLocked(ctx context.Context, i int) []*coalesceCall {
	var batch []*coalesceCall
	for j := i; j < len(c.order) && len(batch) < c.opts.MaxBatch; j++ {
		if j > i && servable(c.ahead[j]) {
			continue
		}
		call := &coalesceCall{ctx: ctx, name: c.order[j], done: make(chan struct{})}
		c.ahead[j] = call
		batch = append(batch, call)
	}
	return batch
}

// takeLocked claims the queued calls and disarms the flush timer. Caller
// holds c.mu.
func (c *CoalescingResolver) takeLocked() []*coalesceCall {
	batch := c.pending
	c.pending = nil
	if c.timer != nil {
		c.timer.Stop()
		c.timer = nil
	}
	return batch
}

// dispatch runs batches until the queue is empty, then clears inFlight. The
// loop (rather than recursion) means calls that queued during a round trip
// become exactly one follow-up batch.
func (c *CoalescingResolver) dispatch(batch []*coalesceCall) {
	for {
		c.resolveBatch(batch)
		c.mu.Lock()
		if len(c.pending) == 0 {
			c.inFlight = false
			c.mu.Unlock()
			return
		}
		batch = c.takeLocked()
		c.mu.Unlock()
	}
}

// dispatchOnce serves one already-claimed batch without touching the
// inFlight dispatcher loop (used for MaxBatch overflow flushes).
func (c *CoalescingResolver) dispatchOnce(batch []*coalesceCall) {
	c.resolveBatch(batch)
}

// flushAfterDelay is the MaxDelay timer: calls that queued behind an
// in-flight batch are normally drained when it returns, but if the
// dispatcher exited in between, the queue would wait forever — the timer is
// that backstop.
func (c *CoalescingResolver) flushAfterDelay() {
	c.mu.Lock()
	c.timer = nil
	if len(c.pending) == 0 || c.inFlight {
		c.mu.Unlock() // empty, or an in-flight dispatcher will drain it
		return
	}
	batch := c.takeLocked()
	c.inFlight = true
	c.mu.Unlock()
	c.dispatch(batch)
}

func (c *CoalescingResolver) resolveBatch(batch []*coalesceCall) {
	names := make([]string, len(batch))
	for i, call := range batch {
		names[i] = call.name
	}
	c.batches.Add(1)
	c.names.Add(int64(len(names)))
	for {
		cur := c.maxBatch.Load()
		if int64(len(names)) <= cur || c.maxBatch.CompareAndSwap(cur, int64(len(names))) {
			break
		}
	}
	// The batch runs on the leading call's context minus its cancellation:
	// the batch serves other callers too and is already time-bounded by the
	// resilience layer's batch budget, but the context's values — notably
	// the run's tracer — must flow through so resolution spans stay in the
	// run's trace tree.
	results := c.detail.BatchResolveDetail(context.WithoutCancel(batch[0].ctx), names)
	for i, call := range batch {
		if i < len(results) {
			call.res = results[i]
		} else {
			call.res = BatchResult{
				Resolution: Resolution{Query: call.name, Status: StatusUnknown},
				Err:        unknownNameErr(call.name),
			}
		}
		close(call.done)
	}
}

// BatchResolve passes explicit batches straight through — they are already
// shaped; only single calls need coalescing.
func (c *CoalescingResolver) BatchResolve(ctx context.Context, names []string) ([]Resolution, error) {
	return resolutionsFromDetail(names, c.detail.BatchResolveDetail(ctx, names))
}

// BatchResolveDetail passes through, keeping the capability visible to
// curation.Detect's probe through this wrapper too.
func (c *CoalescingResolver) BatchResolveDetail(ctx context.Context, names []string) []BatchResult {
	return c.detail.BatchResolveDetail(ctx, names)
}

// Stats reports dispatched batches, total names carried, and the largest
// batch observed.
func (c *CoalescingResolver) Stats() (batches, names, maxBatch int64) {
	return c.batches.Load(), c.names.Load(), c.maxBatch.Load()
}
