package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func fenceDB(t testing.TB) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func fenceTestSchema(t testing.TB, db *DB, table string) {
	t.Helper()
	s, err := NewSchema(table,
		Column{Name: "key", Kind: KindString},
		Column{Name: "payload", Kind: KindString},
	)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	if err := db.CreateTable(s); err != nil {
		t.Fatalf("create table: %v", err)
	}
}

func TestFenceTokenLifecycle(t *testing.T) {
	db := fenceDB(t)
	if got := db.FenceToken("run/r1"); got != 0 {
		t.Fatalf("fresh token = %d, want 0", got)
	}
	if err := db.AdvanceFence("run/r1", 1); err != nil {
		t.Fatalf("advance to 1: %v", err)
	}
	if got := db.FenceToken("run/r1"); got != 1 {
		t.Fatalf("token = %d, want 1", got)
	}
	// Strictly monotonic: re-advancing to the same or a lower token loses.
	if err := db.AdvanceFence("run/r1", 1); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("advance to same token: err = %v, want ErrStaleFence", err)
	}
	if err := db.AdvanceFence("run/r1", 0); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("advance backwards: err = %v, want ErrStaleFence", err)
	}
	if err := db.AdvanceFence("run/r1", 5); err != nil {
		t.Fatalf("advance to 5: %v", err)
	}
	// Fences are per-resource.
	if got := db.FenceToken("run/r2"); got != 0 {
		t.Fatalf("unrelated token = %d, want 0", got)
	}
}

func TestApplyFencedRejectsStaleToken(t *testing.T) {
	db := fenceDB(t)
	fenceTestSchema(t, db, "hist")
	// Before any advance, token 0 writes freely (the unorchestrated case).
	if err := db.ApplyFenced("run/r1", 0, InsertOp("hist", Row{S("a"), S("1")})); err != nil {
		t.Fatalf("apply at token 0: %v", err)
	}
	if err := db.AdvanceFence("run/r1", 2); err != nil {
		t.Fatalf("advance: %v", err)
	}
	// The old holder's writes are rejected with zero effect.
	err := db.ApplyFenced("run/r1", 1, InsertOp("hist", Row{S("b"), S("2")}))
	if !errors.Is(err, ErrStaleFence) {
		t.Fatalf("stale apply: err = %v, want ErrStaleFence", err)
	}
	if db.Table("hist").Has(S("b")) {
		t.Fatal("stale apply left a row behind")
	}
	// The new holder writes under the advanced token; equality is enough.
	if err := db.ApplyFenced("run/r1", 2, InsertOp("hist", Row{S("c"), S("3")})); err != nil {
		t.Fatalf("apply at current token: %v", err)
	}
	// A fence on one resource does not gate another.
	if err := db.ApplyFenced("run/r9", 0, InsertOp("hist", Row{S("d"), S("4")})); err != nil {
		t.Fatalf("apply under unrelated fence: %v", err)
	}
}

// TestAdvanceFenceWithOps: ops handed to an advance land exactly when the
// advance does — a stale advance writes none of them.
func TestAdvanceFenceWithOps(t *testing.T) {
	db := fenceDB(t)
	fenceTestSchema(t, db, "leases")
	if err := db.AdvanceFence("lease/r1", 1, InsertOp("leases", Row{S("r1"), S("holder-a")})); err != nil {
		t.Fatalf("advance with insert: %v", err)
	}
	if !db.Table("leases").Has(S("r1")) || db.FenceToken("lease/r1") != 1 {
		t.Fatal("advance did not write its row and token together")
	}
	err := db.AdvanceFence("lease/r1", 1, UpdateOp("leases", Row{S("r1"), S("holder-b")}))
	if !errors.Is(err, ErrStaleFence) {
		t.Fatalf("stale advance: err = %v, want ErrStaleFence", err)
	}
	row, err := db.Table("leases").Get(S("r1"))
	if err != nil || row[1].Str() != "holder-a" {
		t.Fatalf("row after stale advance = %v, %v; want holder-a untouched", row, err)
	}
}

func TestFenceSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := db.AdvanceFence("run/r1", 7); err != nil {
		t.Fatalf("advance: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db, err = Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	if got := db.FenceToken("run/r1"); got != 7 {
		t.Fatalf("token after reopen = %d, want 7", got)
	}
	if err := db.AdvanceFence("run/r1", 7); !errors.Is(err, ErrStaleFence) {
		t.Fatalf("re-advance after reopen: err = %v, want ErrStaleFence", err)
	}
}

// TestFenceConcurrentAdvance pins the CAS property stealers rely on: many
// goroutines racing to advance to the same token — exactly one wins, the rest
// observe ErrStaleFence.
func TestFenceConcurrentAdvance(t *testing.T) {
	db := fenceDB(t)
	const racers = 8
	var wg sync.WaitGroup
	wins := make(chan int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := db.AdvanceFence("run/contended", 1); err == nil {
				wins <- i
			} else if !errors.Is(err, ErrStaleFence) {
				t.Errorf("racer %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	if n := len(wins); n != 1 {
		t.Fatalf("winners = %d, want exactly 1", n)
	}
}

// BenchmarkFencedAppend measures the cost the fencing check adds to a
// history-style append batch: the same 8-op insert batch applied unfenced
// (plain Apply) and fenced (ApplyFenced under an advanced token). The fenced
// path adds one B-tree point read under the already-held write lock.
func BenchmarkFencedAppend(b *testing.B) {
	const batch = 8
	run := func(b *testing.B, fenced bool) {
		db := fenceDB(b)
		fenceTestSchema(b, db, "hist")
		if fenced {
			if err := db.AdvanceFence("run/bench", 1); err != nil {
				b.Fatalf("advance: %v", err)
			}
		}
		payload := S(`{"kind":"iteration_element","activity":"Catalog_of_life","element":3}`)
		ops := make([]Op, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range ops {
				ops[j] = InsertOp("hist", Row{S(fmt.Sprintf("k%09d-%d", i, j)), payload})
			}
			var err error
			if fenced {
				err = db.ApplyFenced("run/bench", 1, ops...)
			} else {
				err = db.Apply(ops...)
			}
			if err != nil {
				b.Fatalf("apply: %v", err)
			}
		}
	}
	b.Run("unfenced", func(b *testing.B) { run(b, false) })
	b.Run("fenced", func(b *testing.B) { run(b, true) })
}
