package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/fnjv"
	"repro/internal/opm"
	"repro/internal/provenance"
	"repro/internal/taxonomy"
)

// timedResolver times every call core makes into the authority stack it
// wraps. Use wrapResolver to build one: the wrapper must expose exactly the
// batch interfaces the wrapped resolver exposes, because taxonomy.Coalesce
// picks its path by type assertion and a wrapper that hid BatchResolve would
// silently switch the run onto one upstream request per name.
type timedResolver struct {
	inner taxonomy.Resolver
	log   *spanLog
	names atomic.Int64
}

func (t *timedResolver) Resolve(ctx context.Context, name string) (taxonomy.Resolution, error) {
	start := time.Now()
	res, err := t.inner.Resolve(ctx, name)
	t.done(1, "resolve", start)
	return res, err
}

func (t *timedResolver) batchResolve(ctx context.Context, names []string) ([]taxonomy.Resolution, error) {
	start := time.Now()
	res, err := t.inner.(taxonomy.BatchResolver).BatchResolve(ctx, names)
	t.done(len(names), "resolve-batch", start)
	return res, err
}

func (t *timedResolver) batchResolveDetail(ctx context.Context, names []string) []taxonomy.BatchResult {
	start := time.Now()
	res := t.inner.(taxonomy.DetailedBatchResolver).BatchResolveDetail(ctx, names)
	t.done(len(names), "resolve-batch", start)
	return res
}

func (t *timedResolver) done(names int, what string, start time.Time) {
	if t.log.add(span{Layer: layerTaxonomy, Name: what, Start: start, End: time.Now()}) != 0 {
		t.names.Add(int64(names))
	}
}

type timedBatch struct{ *timedResolver }

func (t timedBatch) BatchResolve(ctx context.Context, names []string) ([]taxonomy.Resolution, error) {
	return t.batchResolve(ctx, names)
}

type timedDetail struct{ *timedResolver }

func (t timedDetail) BatchResolveDetail(ctx context.Context, names []string) []taxonomy.BatchResult {
	return t.batchResolveDetail(ctx, names)
}

type timedBoth struct{ *timedResolver }

func (t timedBoth) BatchResolve(ctx context.Context, names []string) ([]taxonomy.Resolution, error) {
	return t.batchResolve(ctx, names)
}

func (t timedBoth) BatchResolveDetail(ctx context.Context, names []string) []taxonomy.BatchResult {
	return t.batchResolveDetail(ctx, names)
}

// wrapResolver returns a timing wrapper around inner with the same
// BatchResolver and DetailedBatchResolver capabilities as inner.
func wrapResolver(inner taxonomy.Resolver, log *spanLog) taxonomy.Resolver {
	t := &timedResolver{inner: inner, log: log}
	_, batch := inner.(taxonomy.BatchResolver)
	_, detail := inner.(taxonomy.DetailedBatchResolver)
	switch {
	case batch && detail:
		return timedBoth{t}
	case batch:
		return timedBatch{t}
	case detail:
		return timedDetail{t}
	}
	return t
}

// timedRepo times the snapshot reads the web layer makes into provenance:
// taking the COW view is storage time, the reads on it provenance time.
// Every other method passes straight through to the wrapped repository.
type timedRepo struct {
	provenance.Repo
	log *spanLog
}

func (r timedRepo) Snapshot() provenance.Repo {
	start := time.Now()
	snap := r.Repo.Snapshot()
	r.log.add(span{Layer: layerStorage, Name: "view", Start: start, End: time.Now()})
	return timedSnapshot{Repo: snap, log: r.log}
}

type timedSnapshot struct {
	provenance.Repo
	log *spanLog
}

func (s timedSnapshot) Run(runID string) (provenance.RunInfo, error) {
	start := time.Now()
	info, err := s.Repo.Run(runID)
	s.log.add(span{Layer: layerProvenance, Name: "run", Start: start, End: time.Now()})
	return info, err
}

func (s timedSnapshot) RunsPage(after string, limit int) ([]provenance.RunInfo, string, error) {
	start := time.Now()
	runs, next, err := s.Repo.RunsPage(after, limit)
	s.log.add(span{Layer: layerProvenance, Name: "runs-page", Start: start, End: time.Now()})
	return runs, next, err
}

func (s timedSnapshot) Graph(runID string) (*opm.Graph, error) {
	start := time.Now()
	g, err := s.Repo.Graph(runID)
	s.log.add(span{Layer: layerProvenance, Name: "graph", Start: start, End: time.Now()})
	return g, err
}

// timedRecords times the record queries the web layer makes into the
// collection store. Use wrapRecords: core finds a sharded store's
// tenant-affine scan by type assertion, so the wrapper keeps ScanTenant
// exactly when the wrapped store has it.
type timedRecords struct {
	fnjv.Records
	log *spanLog
}

func (r timedRecords) Query(pred fnjv.Predicate, opts fnjv.QueryOptions) ([]*fnjv.Record, error) {
	start := time.Now()
	recs, err := r.Records.Query(pred, opts)
	r.log.add(span{Layer: layerStorage, Name: "records-query", Start: start, End: time.Now()})
	return recs, err
}

type tenantScanner interface {
	ScanTenant(tenant string, fn func(*fnjv.Record) bool) error
}

type timedTenantRecords struct{ timedRecords }

func (r timedTenantRecords) ScanTenant(tenant string, fn func(*fnjv.Record) bool) error {
	return r.Records.(tenantScanner).ScanTenant(tenant, fn)
}

func wrapRecords(inner fnjv.Records, log *spanLog) fnjv.Records {
	t := timedRecords{Records: inner, log: log}
	if _, ok := inner.(tenantScanner); ok {
		return timedTenantRecords{t}
	}
	return t
}
