package cluster

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/workflow"
)

// fakeBackend is an in-memory SchedulerBackend that arbitrates execution
// through the real lease store — claim-before-read, exactly like core — so
// scheduler tests exercise the genuine contention paths without a full
// detection system.
type fakeBackend struct {
	leases *Store
	ttl    time.Duration

	mu          sync.Mutex
	pending     map[string]workflow.Admission
	crashOnce   map[string]bool // interrupted on first execution attempt
	interrupted map[string]bool // lease abandoned, awaiting rescue
	executed    map[string][]string
}

func newFakeBackend(leases *Store, ttl time.Duration) *fakeBackend {
	return &fakeBackend{
		leases: leases, ttl: ttl,
		pending:     map[string]workflow.Admission{},
		crashOnce:   map[string]bool{},
		interrupted: map[string]bool{},
		executed:    map[string][]string{},
	}
}

func (b *fakeBackend) admit(runID string, crash bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending[runID] = workflow.Admission{RunID: runID}
	if crash {
		b.crashOnce[runID] = true
	}
}

func (b *fakeBackend) PendingAdmissions() ([]workflow.Admission, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]workflow.Admission, 0, len(b.pending))
	for _, a := range b.pending {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RunID < out[j].RunID })
	return out, nil
}

func (b *fakeBackend) ExecuteAdmission(_ context.Context, adm workflow.Admission, orch string) error {
	l, err := b.leases.Acquire(adm.RunID, orch, b.ttl)
	if err != nil {
		return err
	}
	b.mu.Lock()
	if _, still := b.pending[adm.RunID]; !still {
		// Claim-before-read: we won an expired lease on a run a peer already
		// finished. Nothing to execute.
		b.mu.Unlock()
		return b.leases.Release(l)
	}
	if b.interrupted[adm.RunID] {
		// An earlier attempt died mid-run: executing the admission now IS the
		// resume (core converges both paths on history replay).
		delete(b.interrupted, adm.RunID)
		delete(b.pending, adm.RunID)
		b.executed[adm.RunID] = append(b.executed[adm.RunID], orch)
		b.mu.Unlock()
		return b.leases.Release(l)
	}
	if b.crashOnce[adm.RunID] {
		delete(b.crashOnce, adm.RunID)
		b.interrupted[adm.RunID] = true
		b.mu.Unlock()
		// Abandon: the lease ages out like a dead process's.
		return fmt.Errorf("%w: chaos cut", ErrRunInterrupted)
	}
	delete(b.pending, adm.RunID)
	b.executed[adm.RunID] = append(b.executed[adm.RunID], orch)
	b.mu.Unlock()
	return b.leases.Release(l)
}

func (b *fakeBackend) RescueCandidates() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	var out []string
	for id := range b.interrupted {
		if l, ok := b.leases.Get(id); ok && !l.Live(now) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (b *fakeBackend) RescueRun(_ context.Context, runID, orch string) error {
	l, err := b.leases.Acquire(runID, orch, b.ttl)
	if err != nil {
		return err
	}
	b.mu.Lock()
	if !b.interrupted[runID] {
		b.mu.Unlock()
		return b.leases.Release(l)
	}
	delete(b.interrupted, runID)
	delete(b.pending, runID)
	b.executed[runID] = append(b.executed[runID], orch)
	b.mu.Unlock()
	return b.leases.Release(l)
}

func (b *fakeBackend) done() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending) == 0 && len(b.interrupted) == 0
}

func (b *fakeBackend) executions() map[string][]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string][]string, len(b.executed))
	for k, v := range b.executed {
		out[k] = append([]string(nil), v...)
	}
	return out
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSchedulerMembership(t *testing.T) {
	store, _ := leaseStore(t)
	be := newFakeBackend(store, 50*time.Millisecond)
	a := &Scheduler{Name: "orch-a", Leases: store, Backend: be, TTL: 60 * time.Millisecond, Seed: 1}
	b := &Scheduler{Name: "orch-b", Leases: store, Backend: be, TTL: 60 * time.Millisecond, Seed: 1}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	members := store.Members(time.Now())
	if len(members) != 2 || members[0].Name != "orch-a" || members[1].Name != "orch-b" {
		t.Fatalf("members = %+v, want orch-a + orch-b", members)
	}
	for _, m := range members {
		if !m.Live {
			t.Fatalf("member %s not live", m.Name)
		}
	}

	// A clean Stop leaves immediately: the row expires in place.
	b.Stop()
	for _, m := range store.Members(time.Now()) {
		if m.Name == "orch-b" && m.Live {
			t.Fatal("stopped member still live")
		}
	}

	// A kill leaves the row to age out: live until the TTL passes, then dead
	// — while the survivor keeps renewing.
	a.Kill()
	waitFor(t, time.Second, func() bool {
		for _, m := range store.Members(time.Now()) {
			if m.Name == "orch-a" {
				return !m.Live
			}
		}
		return false
	}, "killed member to age out")
}

// TestSchedulerClaimRace is the arbitration contract under -race: N peers
// drain the same admission queue concurrently and every run executes exactly
// once — the lease CAS picks the winner, losers observe ErrLeaseHeld.
func TestSchedulerClaimRace(t *testing.T) {
	store, _ := leaseStore(t)
	be := newFakeBackend(store, 80*time.Millisecond)
	const runs = 12
	for i := 0; i < runs; i++ {
		be.admit(fmt.Sprintf("run-%06d", i), false)
	}
	var pool []*Scheduler
	for i := 0; i < 3; i++ {
		s := &Scheduler{
			Name: fmt.Sprintf("orch-%d", i), Leases: store, Backend: be,
			TTL: 80 * time.Millisecond, Poll: 5 * time.Millisecond, Seed: int64(i),
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		pool = append(pool, s)
	}
	defer func() {
		for _, s := range pool {
			s.Stop()
		}
	}()
	waitFor(t, 10*time.Second, be.done, "all admissions drained")
	for id, orchs := range be.executions() {
		if len(orchs) != 1 {
			t.Fatalf("run %s executed %d times by %v", id, len(orchs), orchs)
		}
	}
	if n := len(be.executions()); n != runs {
		t.Fatalf("executed %d runs, want %d", n, runs)
	}
}

// TestSchedulerRescue covers the self-healing loop: a run interrupted
// mid-execution (lease abandoned) is rescued by a surviving peer after the
// lease ages out, even when the orchestrator that claimed it first is dead.
func TestSchedulerRescue(t *testing.T) {
	store, _ := leaseStore(t)
	be := newFakeBackend(store, 60*time.Millisecond)
	be.admit("run-000001", true) // first executor is interrupted
	be.admit("run-000002", false)

	a := &Scheduler{Name: "orch-a", Leases: store, Backend: be,
		TTL: 60 * time.Millisecond, Poll: 5 * time.Millisecond, Seed: 7}
	b := &Scheduler{Name: "orch-b", Leases: store, Backend: be,
		TTL: 60 * time.Millisecond, Poll: 5 * time.Millisecond, Seed: 8}
	var mu sync.Mutex
	var interruptedBy string
	hook := func(ev SchedulerEvent) {
		if ev.Kind == "interrupted" {
			mu.Lock()
			if interruptedBy == "" {
				interruptedBy = ev.Orchestrator
			}
			mu.Unlock()
		}
	}
	a.OnEvent, b.OnEvent = hook, hook
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()

	// As soon as one orchestrator has been interrupted mid-run, kill it: the
	// rescue must come from the survivor or not at all.
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return interruptedBy != ""
	}, "a run to be interrupted")
	mu.Lock()
	victim := interruptedBy
	mu.Unlock()
	killed := a
	survivor := b
	if victim == "orch-b" {
		killed, survivor = b, a
	}
	killed.Kill()

	waitFor(t, 10*time.Second, be.done, "survivor to rescue and drain everything")
	for id, orchs := range be.executions() {
		if len(orchs) != 1 {
			t.Fatalf("run %s executed %d times by %v", id, len(orchs), orchs)
		}
	}
	if got := be.executions()["run-000001"][0]; got != survivor.Name {
		t.Fatalf("rescue executed by %s, want survivor %s", got, survivor.Name)
	}
	// The rescued run's fence token moved past the abandoned claim: token 1
	// was the interrupted claim, the rescue stole at ≥2.
	if l, ok := store.Get("run-000001"); !ok || l.Token < 2 {
		t.Fatalf("rescued lease = %+v, want token ≥ 2", l)
	}
}

// TestSchedulerWakeDrainsAtOnce: with a poll far in the future, an
// admission followed by Wake completes without waiting for a tick. Wake is a
// no-op before Start and after Stop.
func TestSchedulerWakeDrainsAtOnce(t *testing.T) {
	store, _ := leaseStore(t)
	be := newFakeBackend(store, time.Second)
	s := &Scheduler{Name: "orch-a", Leases: store, Backend: be, Poll: time.Hour, Seed: 1}
	s.Wake() // before Start: nothing to wake, must not block or panic
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	be.admit("run-000001", false)
	s.Wake()
	waitFor(t, 2*time.Second, be.done, "woken admission to complete")
	c := s.Counters()
	if c["scheduler.ticks"] != 0 || c["scheduler.wakes"] < 1 || c["scheduler.completed"] != 1 {
		t.Fatalf("counters = %v, want 0 ticks, ≥1 wake, 1 completed", c)
	}
	s.Stop()
	s.Wake() // after Stop: a no-op
}

// TestSchedulerWakesKeepTickRate: wakes never push the tick deadline back,
// so a lapsed lease is rescued within about 1.5×Poll however often the member
// is woken.
func TestSchedulerWakesKeepTickRate(t *testing.T) {
	store, _ := leaseStore(t)
	be := newFakeBackend(store, time.Second)
	// A run whose owner died: lease lapsed, not on the admission queue, so
	// only the tick's rescue pass can finish it.
	if _, err := store.Acquire("run-lapsed", "orch-dead", 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	be.mu.Lock()
	be.interrupted["run-lapsed"] = true
	be.mu.Unlock()
	time.Sleep(10 * time.Millisecond)

	const poll = 200 * time.Millisecond
	s := &Scheduler{Name: "orch-a", Leases: store, Backend: be, Poll: poll, Seed: 3}
	stop := make(chan struct{})
	var wakers sync.WaitGroup
	wakers.Add(1)
	go func() {
		defer wakers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Wake()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	start := time.Now()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// The first tick is due within 1.5×poll; the rest is scheduling slack.
	// A loop that let wakes push the tick back would never rescue here.
	waitFor(t, 3*poll/2+200*time.Millisecond, be.done, "lapsed run to be rescued under continuous wakes")
	elapsed := time.Since(start)
	close(stop)
	wakers.Wait()
	s.Stop()
	if got := be.executions()["run-lapsed"]; len(got) != 1 || got[0] != "orch-a" {
		t.Fatalf("run-lapsed executed by %v, want orch-a once", got)
	}
	c := s.Counters()
	if c["scheduler.rescued"] != 1 || c["scheduler.wakes"] < 1 {
		t.Fatalf("counters = %v after %v, want 1 rescue and some wakes", c, elapsed)
	}
}

// blockingBackend executes admissions that stay in flight until released
// and stay listed as pending until they finish, so a member that re-claimed
// its own in-flight runs, or ran more than its slots, would show it.
type blockingBackend struct {
	release chan struct{}
	once    sync.Once

	mu       sync.Mutex
	pending  map[string]bool
	inflight int
	peak     int
	executed map[string]int
}

func newBlockingBackend(runs int) *blockingBackend {
	b := &blockingBackend{release: make(chan struct{}), pending: map[string]bool{}, executed: map[string]int{}}
	for i := 0; i < runs; i++ {
		b.pending[fmt.Sprintf("run-%06d", i)] = true
	}
	return b
}

func (b *blockingBackend) PendingAdmissions() ([]workflow.Admission, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]workflow.Admission, 0, len(b.pending))
	for id := range b.pending {
		out = append(out, workflow.Admission{RunID: id})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RunID < out[j].RunID })
	return out, nil
}

func (b *blockingBackend) ExecuteAdmission(_ context.Context, adm workflow.Admission, _ string) error {
	b.mu.Lock()
	b.inflight++
	if b.inflight > b.peak {
		b.peak = b.inflight
	}
	b.executed[adm.RunID]++
	b.mu.Unlock()
	<-b.release
	b.mu.Lock()
	b.inflight--
	delete(b.pending, adm.RunID)
	b.mu.Unlock()
	return nil
}

// unblock lets every held and future execution finish.
func (b *blockingBackend) unblock() { b.once.Do(func() { close(b.release) }) }

func (b *blockingBackend) RescueCandidates() ([]string, error) { return nil, nil }

func (b *blockingBackend) RescueRun(context.Context, string, string) error { return nil }

func (b *blockingBackend) state() (inflight, peak, left int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inflight, b.peak, len(b.pending)
}

// TestSchedulerDrainBoundedConcurrency: with more admissions than
// GOMAXPROCS, at most GOMAXPROCS execute at once in one member, none is
// claimed twice while in flight, and the rest start as slots free up — woken
// by the freed slot, since the poll never ticks here.
func TestSchedulerDrainBoundedConcurrency(t *testing.T) {
	store, _ := leaseStore(t)
	slots := runtime.GOMAXPROCS(0)
	runs := 2*slots + 1
	be := newBlockingBackend(runs)
	s := &Scheduler{Name: "orch-a", Leases: store, Backend: be, Poll: time.Hour, Seed: 1}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	defer be.unblock() // runs before Stop, which waits for in-flight runs
	s.Wake()
	waitFor(t, 2*time.Second, func() bool { n, _, _ := be.state(); return n == slots }, "every slot to fill")
	// Wake the loop many times over the blocked runs.
	for i := 0; i < 20; i++ {
		s.Wake()
		time.Sleep(2 * time.Millisecond)
	}
	if n, peak, _ := be.state(); n != slots || peak != slots {
		t.Fatalf("in flight %d, peak %d; want both %d", n, peak, slots)
	}
	be.unblock()
	waitFor(t, 5*time.Second, func() bool { _, _, left := be.state(); return left == 0 }, "every admission to drain")
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.peak > slots {
		t.Fatalf("peak in flight %d, want ≤ %d", be.peak, slots)
	}
	if len(be.executed) != runs {
		t.Fatalf("executed %d runs, want %d", len(be.executed), runs)
	}
	for id, n := range be.executed {
		if n != 1 {
			t.Fatalf("run %s executed %d times, want once", id, n)
		}
	}
}

// TestSchedulerStopAndKillWaitForInflight: neither Stop nor Kill returns
// while an admitted run is still executing.
func TestSchedulerStopAndKillWaitForInflight(t *testing.T) {
	for _, mode := range []string{"stop", "kill"} {
		t.Run(mode, func(t *testing.T) {
			store, _ := leaseStore(t)
			be := newBlockingBackend(1)
			s := &Scheduler{Name: "orch-a", Leases: store, Backend: be, Poll: time.Hour, Seed: 1}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			defer be.unblock()
			s.Wake()
			waitFor(t, 2*time.Second, func() bool { n, _, _ := be.state(); return n == 1 }, "the run to start")
			returned := make(chan struct{})
			go func() {
				if mode == "stop" {
					s.Stop()
				} else {
					s.Kill()
				}
				close(returned)
			}()
			select {
			case <-returned:
				t.Fatalf("%s returned with a run in flight", mode)
			case <-time.After(50 * time.Millisecond):
			}
			be.unblock()
			<-returned
			if n, _, left := be.state(); n != 0 || left != 0 {
				t.Fatalf("after %s: %d in flight, %d pending; want the run finished", mode, n, left)
			}
		})
	}
}
