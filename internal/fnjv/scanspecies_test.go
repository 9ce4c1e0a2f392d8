package fnjv

import (
	"fmt"
	"testing"

	"repro/internal/storage"
)

func speciesStore(t *testing.T, records []*Record) *Store {
	t.Helper()
	db, err := storage.Open(t.TempDir(), storage.Options{Sync: storage.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	store, err := NewStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutAll(records); err != nil {
		t.Fatal(err)
	}
	return store
}

// TestScanSpeciesPrefixRange pins the ScanSpecies contract on the store:
// exactly the IDs carrying the prefix, ascending, with the raw species
// (empty when the record has none), and an early stop when fn says so.
func TestScanSpeciesPrefixRange(t *testing.T) {
	store := speciesStore(t, []*Record{
		{ID: "b:2", Species: "Hyla faber"},
		{ID: "a:1", Species: "Scinax x"},
		{ID: "b:1"},
		{ID: "c:1", Species: "Hyla faber"},
		{ID: "b", Species: "Pitangus sulphuratus"},
		{ID: "R001", Species: "Hyla faber"},
	})
	collect := func(prefix string, limit int) string {
		t.Helper()
		var out string
		n := 0
		err := store.ScanSpecies(prefix, func(id, species string) bool {
			out += fmt.Sprintf("%s=%q ", id, species)
			n++
			return n != limit
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got, want := collect("b:", 0), `b:1="" b:2="Hyla faber" `; got != want {
		t.Fatalf("prefix b: visited %s, want %s", got, want)
	}
	if got, want := collect("", 0), `R001="Hyla faber" a:1="Scinax x" b="Pitangus sulphuratus" b:1="" b:2="Hyla faber" c:1="Hyla faber" `; got != want {
		t.Fatalf("empty prefix visited %s, want %s", got, want)
	}
	if got, want := collect("", 2), `R001="Hyla faber" a:1="Scinax x" `; got != want {
		t.Fatalf("stopped scan visited %s, want %s", got, want)
	}
	if got := collect("z:", 0); got != "" {
		t.Fatalf("unknown prefix visited %s", got)
	}
}

// TestScanSpeciesAllocs guards the detection read path: a ScanSpecies call
// reads rows in place, so its allocations must not grow with the number of
// rows it visits.
func TestScanSpeciesAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		records := make([]*Record, rows)
		for i := range records {
			records[i] = &Record{ID: fmt.Sprintf("t:%05d", i), Species: fmt.Sprintf("Genus species%d", i%50)}
		}
		store := speciesStore(t, records)
		visited := 0
		a := testing.AllocsPerRun(20, func() {
			if err := store.ScanSpecies("t:", func(_, _ string) bool {
				visited++
				return true
			}); err != nil {
				t.Fatal(err)
			}
		})
		if visited != 21*rows { // AllocsPerRun adds one warm-up call
			t.Fatalf("visited %d rows over 21 calls, want %d", visited, 21*rows)
		}
		return a
	}
	small, large := allocs(100), allocs(3000)
	if large > small+1 {
		t.Fatalf("ScanSpecies allocates %.1f/call over 3000 rows vs %.1f over 100: allocation grows with rows", large, small)
	}
}
