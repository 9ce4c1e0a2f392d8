package shard

import (
	"sort"

	"repro/internal/fnjv"
)

// RecordRouter implements fnjv.Records across the cluster: per-ID operations
// go to the owning shard, collection-wide operations scatter-gather and
// merge back into the store's ascending-ID contract.
type RecordRouter struct {
	c *Cluster
}

var _ fnjv.Records = (*RecordRouter)(nil)

// Put implements fnjv.Records.
func (r *RecordRouter) Put(rec *fnjv.Record) error {
	sh := r.c.owner(rec.ID)
	st, err := sh.recordStore()
	if err == nil {
		err = st.Put(rec)
	}
	sh.note(err)
	return err
}

// PutAll implements fnjv.Records, batching each shard's slice through its
// own store so ingest keeps the per-shard batch-apply fast path.
func (r *RecordRouter) PutAll(records []*fnjv.Record) error {
	byShard := make(map[int][]*fnjv.Record)
	for _, rec := range records {
		idx := r.c.OwnerIndex(rec.ID)
		byShard[idx] = append(byShard[idx], rec)
	}
	_, err := gather(r.c, "records.PutAll", func(sh *Shard) (struct{}, error) {
		batch := byShard[sh.id]
		if len(batch) == 0 {
			return struct{}{}, nil
		}
		st, serr := sh.recordStore()
		if serr != nil {
			return struct{}{}, serr
		}
		return struct{}{}, st.PutAll(batch)
	})
	return err
}

// Get implements fnjv.Records.
func (r *RecordRouter) Get(id string) (*fnjv.Record, error) {
	sh := r.c.owner(id)
	st, err := sh.recordStore()
	if err != nil {
		sh.note(err)
		return nil, err
	}
	rec, err := st.Get(id)
	sh.note(err)
	return rec, err
}

// Update implements fnjv.Records.
func (r *RecordRouter) Update(rec *fnjv.Record) error {
	sh := r.c.owner(rec.ID)
	st, err := sh.recordStore()
	if err == nil {
		err = st.Update(rec)
	}
	sh.note(err)
	return err
}

// Len implements fnjv.Records.
func (r *RecordRouter) Len() int {
	counts, _ := gather(r.c, "records.Len", func(sh *Shard) (int, error) {
		st, err := sh.recordStore()
		if err != nil {
			return 0, err
		}
		return st.Len(), nil
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// all gathers every shard's records merged into ascending-ID order.
func (r *RecordRouter) all(op string) ([]*fnjv.Record, error) {
	lists, err := gather(r.c, op, func(sh *Shard) ([]*fnjv.Record, error) {
		st, serr := sh.recordStore()
		if serr != nil {
			return nil, serr
		}
		var out []*fnjv.Record
		serr = st.Scan(func(rec *fnjv.Record) bool {
			out = append(out, rec)
			return true
		})
		return out, serr
	})
	if err != nil {
		return nil, err
	}
	var all []*fnjv.Record
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all, nil
}

// Scan implements fnjv.Records. The merge materialises each shard's records
// before visiting — the price of keeping the single-store ascending-ID
// contract over hash-spread rows.
func (r *RecordRouter) Scan(fn func(*fnjv.Record) bool) error {
	all, err := r.all("records.Scan")
	if err != nil {
		return err
	}
	for _, rec := range all {
		if !fn(rec) {
			break
		}
	}
	return nil
}

// ScanSpecies implements fnjv.Records. Tenant affinity pins every
// tenant-qualified ID to a single shard, so a tenant prefix scans only that
// shard: the tenant keeps serving while unrelated shards are down, and pays
// no scatter-gather for its own working set. Any other prefix (the empty
// one included) gathers every shard's matching pairs and merges them back
// into ascending ID order.
func (r *RecordRouter) ScanSpecies(prefix string, fn func(id, species string) bool) error {
	if tenant, _ := Split(prefix); tenant != "" {
		sh := r.c.owner(prefix)
		st, err := sh.recordStore()
		if err == nil {
			err = st.ScanSpecies(prefix, fn)
		}
		sh.note(err)
		return err
	}
	type pair struct{ id, species string }
	lists, err := gather(r.c, "records.ScanSpecies", func(sh *Shard) ([]pair, error) {
		st, serr := sh.recordStore()
		if serr != nil {
			return nil, serr
		}
		var out []pair
		serr = st.ScanSpecies(prefix, func(id, species string) bool {
			out = append(out, pair{id, species})
			return true
		})
		return out, serr
	})
	if err != nil {
		return err
	}
	var all []pair
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	for _, p := range all {
		if !fn(p.id, p.species) {
			break
		}
	}
	return nil
}

// BySpecies implements fnjv.Records.
func (r *RecordRouter) BySpecies(name string) ([]*fnjv.Record, error) {
	return r.indexFanOut("records.BySpecies", func(st *fnjv.Store) ([]*fnjv.Record, error) {
		return st.BySpecies(name)
	})
}

// ByState implements fnjv.Records.
func (r *RecordRouter) ByState(state string) ([]*fnjv.Record, error) {
	return r.indexFanOut("records.ByState", func(st *fnjv.Store) ([]*fnjv.Record, error) {
		return st.ByState(state)
	})
}

func (r *RecordRouter) indexFanOut(op string, fn func(*fnjv.Store) ([]*fnjv.Record, error)) ([]*fnjv.Record, error) {
	lists, err := gather(r.c, op, func(sh *Shard) ([]*fnjv.Record, error) {
		st, serr := sh.recordStore()
		if serr != nil {
			return nil, serr
		}
		return fn(st)
	})
	if err != nil {
		return nil, err
	}
	var all []*fnjv.Record
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all, nil
}

// DistinctSpecies implements fnjv.Records, summing per-shard counts.
func (r *RecordRouter) DistinctSpecies() (map[string]int, error) {
	maps, err := gather(r.c, "records.DistinctSpecies", func(sh *Shard) (map[string]int, error) {
		st, serr := sh.recordStore()
		if serr != nil {
			return nil, serr
		}
		return st.DistinctSpecies()
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, m := range maps {
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// Stats implements fnjv.Records. Additive fields sum across shards; the
// distinct-species count needs the cross-shard union, since one species'
// records can hash to several shards.
func (r *RecordRouter) Stats() (fnjv.Stats, error) {
	stats, err := gather(r.c, "records.Stats", func(sh *Shard) (fnjv.Stats, error) {
		st, serr := sh.recordStore()
		if serr != nil {
			return fnjv.Stats{}, serr
		}
		return st.Stats()
	})
	if err != nil {
		return fnjv.Stats{}, err
	}
	var out fnjv.Stats
	for _, s := range stats {
		out.Records += s.Records
		out.WithCoordinates += s.WithCoordinates
		out.WithEnvFields += s.WithEnvFields
		out.WithHabitat += s.WithHabitat
	}
	distinct, err := r.DistinctSpecies()
	if err != nil {
		return fnjv.Stats{}, err
	}
	out.DistinctSpecies = len(distinct)
	return out, nil
}

// Query implements fnjv.Records: each shard answers the same predicate and
// ordering with the same limit (a global top-k is always contained in the
// union of per-shard top-ks), then the merge re-sorts with the store's
// comparators and truncates.
func (r *RecordRouter) Query(pred fnjv.Predicate, opts fnjv.QueryOptions) ([]*fnjv.Record, error) {
	lists, err := gather(r.c, "records.Query", func(sh *Shard) ([]*fnjv.Record, error) {
		st, serr := sh.recordStore()
		if serr != nil {
			return nil, serr
		}
		return st.Query(pred, opts)
	})
	if err != nil {
		return nil, err
	}
	var all []*fnjv.Record
	for _, l := range lists {
		all = append(all, l...)
	}
	if err := fnjv.SortRecords(all, opts.OrderBy); err != nil {
		return nil, err
	}
	if opts.Limit > 0 && len(all) > opts.Limit {
		all = all[:opts.Limit]
	}
	return all, nil
}
