package fnjv

// Records is the collection-store surface consumed by core and the web
// service. *Store implements it directly; shard.RecordRouter implements it
// by routing per-ID operations to the owning shard and merging cross-shard
// scans under the store's ID ordering.
type Records interface {
	Put(r *Record) error
	PutAll(records []*Record) error
	Get(id string) (*Record, error)
	Update(r *Record) error
	Len() int
	// Scan visits every record in ascending ID order until fn returns false.
	Scan(fn func(*Record) bool) error
	// ScanSpecies visits the ID and raw species of every record whose ID
	// starts with prefix, in ascending ID order, until fn returns false.
	// It never builds a *Record: detection runs read only these two fields.
	ScanSpecies(prefix string, fn func(id, species string) bool) error
	BySpecies(name string) ([]*Record, error)
	ByState(state string) ([]*Record, error)
	DistinctSpecies() (map[string]int, error)
	Stats() (Stats, error)
	Query(pred Predicate, opts QueryOptions) ([]*Record, error)
}

var _ Records = (*Store)(nil)
