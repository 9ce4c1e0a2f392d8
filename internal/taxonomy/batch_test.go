package taxonomy

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newBenchServer(b *testing.B, svc *Service) string {
	server := httptest.NewServer(svc)
	b.Cleanup(server.Close)
	return server.URL
}

// countBatchResolver is a batch-capable inner resolver that counts how it
// was called, with a switchable outage.
type countBatchResolver struct {
	cl    *Checklist
	delay time.Duration // simulated round-trip latency

	mu         sync.Mutex
	down       bool
	singles    int
	batches    int
	batchNames int
}

func (c *countBatchResolver) Resolve(ctx context.Context, name string) (Resolution, error) {
	c.mu.Lock()
	c.singles++
	down := c.down
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	if down {
		return Resolution{Query: name, Status: StatusUnknown}, fmt.Errorf("%w: injected outage", ErrUnavailable)
	}
	return c.cl.Resolve(ctx, name)
}

func (c *countBatchResolver) BatchResolve(ctx context.Context, names []string) ([]Resolution, error) {
	c.mu.Lock()
	c.batches++
	c.batchNames += len(names)
	down := c.down
	c.mu.Unlock()
	if c.delay > 0 {
		time.Sleep(c.delay) // one round trip per batch, regardless of size
	}
	if down {
		return nil, fmt.Errorf("%w: injected outage", ErrUnavailable)
	}
	out := make([]Resolution, len(names))
	for i, name := range names {
		res, err := c.cl.Resolve(ctx, name)
		if err != nil {
			res = Resolution{Query: name, Status: StatusUnknown}
		}
		out[i] = res
	}
	return out, nil
}

func (c *countBatchResolver) setDown(down bool) {
	c.mu.Lock()
	c.down = down
	c.mu.Unlock()
}

func (c *countBatchResolver) counts() (singles, batches, batchNames int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.singles, c.batches, c.batchNames
}

// batchEpithet renders digit-free epithets ("speciesaa", "speciesab", ...)
// — the name parser rejects digits in scientific names.
func batchEpithet(i int) string {
	return "species" + string([]byte{byte('a' + i/26), byte('a' + i%26)})
}

func batchSpecies(i int) string { return "Hyla " + batchEpithet(i) }

func batchChecklist(t testing.TB) *Checklist {
	t.Helper()
	cl := NewChecklist()
	for i := 0; i < 40; i++ {
		taxon := &Taxon{
			ID:     fmt.Sprintf("T%02d", i),
			Name:   Name{Genus: "Hyla", Epithet: batchEpithet(i)},
			Status: StatusAccepted,
			Group:  "amphibians",
		}
		if err := cl.Add(taxon); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func batchNames16(off int) []string {
	names := make([]string, 16)
	for i := range names {
		names[i] = batchSpecies((off + i) % 40)
	}
	return names
}

func TestCachingResolverBatchCoalescesMissesIntoOneRoundTrip(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t)}
	c := NewCachingResolver(inner, 0)
	ctx := context.Background()
	names := append(batchNames16(0), "Unknownus unknownii")

	res, err := c.BatchResolve(ctx, names)
	if err != nil {
		t.Fatalf("BatchResolve: %v", err)
	}
	if singles, batches, batchNames := inner.counts(); singles != 0 || batches != 1 || batchNames != len(names) {
		t.Fatalf("cold batch hit upstream %d singles / %d batches (%d names), want one batch of %d",
			singles, batches, batchNames, len(names))
	}
	for i, name := range names[:16] {
		if res[i].Query != name || res[i].Status != StatusAccepted {
			t.Fatalf("result %d = %+v, want accepted %q", i, res[i], name)
		}
	}
	if res[16].Status != StatusUnknown {
		t.Fatalf("unknown name resolved to %+v", res[16])
	}

	// Second batch: every name (including the negative-cached unknown) is a
	// hit; upstream must not be touched again.
	if _, err := c.BatchResolve(ctx, names); err != nil {
		t.Fatalf("warm BatchResolve: %v", err)
	}
	if singles, batches, _ := inner.counts(); singles != 0 || batches != 1 {
		t.Fatalf("warm batch went upstream (%d singles / %d batches)", singles, batches)
	}
	if hits, _ := c.Stats(); hits != int64(len(names)) {
		t.Fatalf("warm batch recorded %d hits, want %d", hits, len(names))
	}
}

func TestCachingResolverBatchSharesDuplicateNames(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t)}
	c := NewCachingResolver(inner, 0)

	names := []string{batchSpecies(1), batchSpecies(1), batchSpecies(2), batchSpecies(1)}
	details := c.BatchResolveDetail(context.Background(), names)
	if _, batches, batchNames := inner.counts(); batches != 1 || batchNames != 2 {
		t.Fatalf("duplicates not shared: %d batches carrying %d names, want 1 carrying 2", batches, batchNames)
	}
	for i, d := range details {
		if d.Err != nil || d.Resolution.Status != StatusAccepted {
			t.Fatalf("result %d = %+v (%v)", i, d.Resolution, d.Err)
		}
	}
}

func TestCachingResolverBatchMatchesSingleResolves(t *testing.T) {
	cl := batchChecklist(t)
	names := append(batchNames16(0), "Unknownus unknownii", "not even parseable!")

	single := NewCachingResolver(&countBatchResolver{cl: cl}, 0)
	batch := NewCachingResolver(&countBatchResolver{cl: cl}, 0)
	ctx := context.Background()

	details := batch.BatchResolveDetail(ctx, names)
	for i, name := range names {
		wantRes, wantErr := single.Resolve(ctx, name)
		if !reflect.DeepEqual(details[i].Resolution, wantRes) {
			t.Errorf("%q: batch %+v, single %+v", name, details[i].Resolution, wantRes)
		}
		switch {
		case (wantErr == nil) != (details[i].Err == nil):
			t.Errorf("%q: batch err %v, single err %v", name, details[i].Err, wantErr)
		case wantErr != nil && !errors.Is(details[i].Err, ErrUnknownName):
			t.Errorf("%q: batch err %v not ErrUnknownName", name, details[i].Err)
		}
	}
}

func TestResilientBatchServesDegradedDuringOutage(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t)}
	r := NewResilientResolver(inner, ResilienceOptions{
		TTL:     time.Millisecond,
		Breaker: quickBreaker(),
	})
	ctx := context.Background()
	names := batchNames16(0)

	if _, err := r.BatchResolve(ctx, names); err != nil {
		t.Fatalf("warm batch: %v", err)
	}
	time.Sleep(5 * time.Millisecond) // expire the TTL
	inner.setDown(true)

	details := r.BatchResolveDetail(ctx, names)
	for i, d := range details {
		if d.Err != nil {
			t.Fatalf("%q: outage batch returned error %v, want degraded answer", names[i], d.Err)
		}
		if !d.Resolution.Degraded {
			t.Fatalf("%q: outage answer not marked Degraded: %+v", names[i], d.Resolution)
		}
	}
	if got := r.Degraded(); got != int64(len(names)) {
		t.Fatalf("Degraded() = %d, want %d", got, len(names))
	}

	// BatchResolve still reports success — every name had a fallback.
	res, err := r.BatchResolve(ctx, names)
	if err != nil || len(res) != len(names) {
		t.Fatalf("outage BatchResolve: %d results, %v", len(res), err)
	}
}

func TestResilientBatchOutageWithoutFallbackFailsWholeBatch(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t)}
	inner.setDown(true)
	r := NewResilientResolver(inner, ResilienceOptions{Breaker: quickBreaker()})

	res, err := r.BatchResolve(context.Background(), batchNames16(0))
	if err == nil || !errors.Is(err, ErrUnavailable) {
		t.Fatalf("cold outage batch: res=%v err=%v, want ErrUnavailable", res, err)
	}
}

func TestCoalesceReturnsSingleOnlyResolverUnchanged(t *testing.T) {
	cl := batchChecklist(t)
	if got := Coalesce(cl, CoalescerOptions{}); got != Resolver(cl) {
		t.Fatalf("Coalesce wrapped a resolver with no batch capability: %T", got)
	}
}

func TestCoalescerSharesRoundTripsAcrossConcurrentResolves(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t), delay: 10 * time.Millisecond}
	r := Coalesce(NewResilientResolver(inner, ResilienceOptions{Breaker: quickBreaker()}), CoalescerOptions{MaxDelay: 5 * time.Millisecond})
	co, ok := r.(*CoalescingResolver)
	if !ok {
		t.Fatalf("Coalesce over a batch-capable stack returned %T", r)
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	results := make([]Resolution, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = co.Resolve(context.Background(), batchSpecies(w))
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if want := batchSpecies(w); results[w].Query != want || results[w].Status != StatusAccepted {
			t.Fatalf("worker %d got %+v, want accepted %q", w, results[w], want)
		}
	}
	batches, names, _ := co.Stats()
	if names != workers {
		t.Fatalf("coalescer carried %d names, want %d", names, workers)
	}
	if batches >= workers {
		t.Fatalf("coalescer dispatched %d batches for %d concurrent resolves — no sharing happened", batches, workers)
	}
}

func TestCoalescerHonorsCallerCancellation(t *testing.T) {
	block := make(chan struct{})
	inner := &blockingBatchResolver{release: block}
	co := Coalesce(inner, CoalescerOptions{}).(*CoalescingResolver)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := co.Resolve(ctx, batchSpecies(1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the call enter the batch
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled resolve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled resolve never returned")
	}
	close(block)
}

// batchOrder returns the first n checklist names, the order a run resolves
// them in.
func batchOrder(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = batchSpecies(i)
	}
	return names
}

func expectCoalescer(t *testing.T, inner Resolver, maxBatch int, order []string) *CoalescingResolver {
	t.Helper()
	co, ok := Coalesce(inner, CoalescerOptions{MaxBatch: maxBatch}).(*CoalescingResolver)
	if !ok {
		t.Fatalf("Coalesce over %T did not wrap it", inner)
	}
	co.Expect(order)
	return co
}

func TestCoalescerExpectedOrderFillsBatches(t *testing.T) {
	svc := NewService(batchChecklist(t), WithLatency(time.Millisecond))
	srv := httptest.NewServer(svc)
	defer srv.Close()
	const n, maxBatch = 40, 16
	order := batchOrder(n)
	co := expectCoalescer(t, NewClient(srv.URL), maxBatch, order)

	// Four callers each walk the list in order, the way overlapping element
	// streams do: whoever first asks a name not yet fetched leads the next
	// batch, and everyone else finds the answer in flight or landed.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, name := range order {
				res, err := co.Resolve(context.Background(), name)
				if err != nil || res.Query != name || res.Status != StatusAccepted {
					t.Errorf("caller %d: %q resolved to %+v (%v)", w, name, res, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	want := int64((n + maxBatch - 1) / maxBatch)
	if requests, _ := svc.Stats(); requests != want {
		t.Fatalf("%d names cost %d upstream requests, want %d", n, requests, want)
	}
	if batches, names, biggest := co.Stats(); batches != want || names != n || biggest != maxBatch {
		t.Fatalf("coalescer stats: %d batches, %d names, largest %d", batches, names, biggest)
	}
}

func TestCoalescerNameOutsideOrderTakesWindowPath(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t)}
	co := expectCoalescer(t, inner, 0, batchOrder(10))

	outside := batchSpecies(20)
	if res, err := co.Resolve(context.Background(), outside); err != nil || res.Status != StatusAccepted {
		t.Fatalf("%q resolved to %+v (%v)", outside, res, err)
	}
	if _, batches, names := inner.counts(); batches != 1 || names != 1 {
		t.Fatalf("unlisted name sent %d batches carrying %d names, want its own batch of 1", batches, names)
	}
	if _, err := co.Resolve(context.Background(), batchSpecies(0)); err != nil {
		t.Fatal(err)
	}
	if _, batches, names := inner.counts(); batches != 2 || names != 11 {
		t.Fatalf("listed name: %d batches carrying %d names, want a second batch of the 10 listed", batches, names)
	}
}

func TestCoalescerRefetchesUnavailableLookAhead(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t)}
	order := batchOrder(10)
	co := expectCoalescer(t, inner, 0, order)
	ctx := context.Background()

	inner.setDown(true)
	if _, err := co.Resolve(ctx, order[0]); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("resolve during outage returned %v, want ErrUnavailable", err)
	}
	inner.setDown(false)
	// order[1] was fetched ahead by the failed batch; its outage must not be
	// served now that the authority is back.
	res, err := co.Resolve(ctx, order[1])
	if err != nil || res.Status != StatusAccepted {
		t.Fatalf("look-ahead slot after the outage: %+v (%v), want a fresh accepted answer", res, err)
	}
	if _, batches, names := inner.counts(); batches != 2 || names != 19 {
		t.Fatalf("%d batches carrying %d names, want the failed batch of 10 and a fresh one of 9", batches, names)
	}
	if _, err := co.Resolve(ctx, order[9]); err != nil {
		t.Fatal(err)
	}
	if _, batches, _ := inner.counts(); batches != 2 {
		t.Fatalf("a name the fresh batch answered went upstream again (%d batches)", batches)
	}
}

// gatedBatchResolver holds every batch until gate is closed.
type gatedBatchResolver struct {
	*countBatchResolver
	gate    chan struct{}
	arrived atomic.Int64
}

func (g *gatedBatchResolver) BatchResolve(ctx context.Context, names []string) ([]Resolution, error) {
	g.arrived.Add(1)
	<-g.gate
	return g.countBatchResolver.BatchResolve(ctx, names)
}

func TestCoalescerCancelledWaiterLeavesBatchForOthers(t *testing.T) {
	inner := &gatedBatchResolver{countBatchResolver: &countBatchResolver{cl: batchChecklist(t)}, gate: make(chan struct{})}
	order := batchOrder(4)
	co := expectCoalescer(t, inner, 0, order)

	ctx, cancel := context.WithCancel(context.Background())
	led := make(chan error, 1)
	go func() {
		_, err := co.Resolve(ctx, order[0])
		led <- err
	}()
	for inner.arrived.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	type answer struct {
		res Resolution
		err error
	}
	joined := make(chan answer, 1)
	go func() {
		res, err := co.Resolve(context.Background(), order[1])
		joined <- answer{res, err}
	}()

	cancel()
	select {
	case err := <-led:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled leader returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled leader did not return while its batch was held")
	}
	close(inner.gate)
	select {
	case a := <-joined:
		if a.err != nil || a.res.Status != StatusAccepted {
			t.Fatalf("waiter on the abandoned batch got %+v (%v)", a.res, a.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never got the batch's answer")
	}
	if res, err := co.Resolve(context.Background(), order[0]); err != nil || res.Status != StatusAccepted {
		t.Fatalf("cancelled caller's name after landing: %+v (%v)", res, err)
	}
	if n := inner.arrived.Load(); n != 1 {
		t.Fatalf("%d upstream batches, want the one the cancelled caller led", n)
	}
}

func TestCoalescerExpectStartsNothing(t *testing.T) {
	inner := &countBatchResolver{cl: batchChecklist(t)}
	co := expectCoalescer(t, inner, 0, batchOrder(10))
	time.Sleep(10 * time.Millisecond)
	if singles, batches, _ := inner.counts(); singles != 0 || batches != 0 {
		t.Fatalf("Expect alone went upstream: %d singles, %d batches", singles, batches)
	}
	if batches, _, _ := co.Stats(); batches != 0 {
		t.Fatalf("Expect alone dispatched %d batches", batches)
	}
}

// BenchmarkResolveBatch compares resolving 16 cold names through the full
// resilient stack over HTTP: name-by-name (16 round trips) versus one batch
// (1 round trip). The authority carries a small fixed latency so the
// benchmark reflects the paper's slow remote Catalogue of Life, not
// loopback speed. The acceptance bar is batch16 >= 3x the single-name
// throughput.
func BenchmarkResolveBatch(b *testing.B) {
	cl := batchChecklist(b)
	svc := NewService(cl, WithLatency(200*time.Microsecond))
	server := newBenchServer(b, svc)
	names := batchNames16(0)

	b.Run("single-16names", func(b *testing.B) {
		client := NewClient(server)
		r := NewResilientResolver(client, ResilienceOptions{})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Cache().Flush() // every iteration pays the cold-miss round trips
			for _, name := range names {
				if _, err := r.Resolve(ctx, name); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*len(names))/b.Elapsed().Seconds(), "names/s")
	})
	b.Run("batch16", func(b *testing.B) {
		client := NewClient(server)
		r := NewResilientResolver(client, ResilienceOptions{})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Cache().Flush()
			if _, err := r.BatchResolve(ctx, names); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(names))/b.Elapsed().Seconds(), "names/s")
	})
}

// blockingBatchResolver parks every batch until released.
type blockingBatchResolver struct {
	release chan struct{}
}

func (b *blockingBatchResolver) Resolve(ctx context.Context, name string) (Resolution, error) {
	<-b.release
	return Resolution{Query: name, Status: StatusUnknown}, unknownNameErr(name)
}

func (b *blockingBatchResolver) BatchResolve(ctx context.Context, names []string) ([]Resolution, error) {
	<-b.release
	out := make([]Resolution, len(names))
	for i, name := range names {
		out[i] = Resolution{Query: name, Status: StatusUnknown}
	}
	return out, nil
}
