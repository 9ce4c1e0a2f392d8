package taxonomy

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestServiceResolveHTTP(t *testing.T) {
	cl := demoChecklist(t)
	when := time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC)
	repl := &Taxon{ID: "T9", Name: Name{Genus: "Elachistocleis", Epithet: "cesarii"}, Status: StatusAccepted, Group: "amphibians"}
	if err := cl.Deprecate("Elachistocleis ovalis", repl, when, "Caramaschi (2010)"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewService(cl))
	defer srv.Close()
	client := NewClient(srv.URL)

	res, err := client.Resolve(context.Background(), "Elachistocleis ovalis")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSynonym || res.AcceptedName != "Elachistocleis cesarii" {
		t.Fatalf("remote resolve = %+v", res)
	}
	if len(res.History) != 1 || res.History[0].Reference != "Caramaschi (2010)" {
		t.Fatalf("history lost over the wire: %+v", res.History)
	}
	if !res.History[0].Date.Equal(when) {
		t.Fatalf("history date = %v, want %v", res.History[0].Date, when)
	}

	res, err = client.Resolve(context.Background(), "Scinax fuscomarginatus")
	if err != nil || res.Status != StatusAccepted {
		t.Fatalf("accepted over wire = %+v, %v", res, err)
	}
	if res.Classification.Class != "Amphibia" {
		t.Fatalf("classification lost: %+v", res.Classification)
	}

	if _, err := client.Resolve(context.Background(), "Missing species"); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("unknown over wire: %v", err)
	}
	if client.ObservedAvailability() != 1.0 {
		t.Fatalf("availability = %f with no faults", client.ObservedAvailability())
	}
}

func TestServiceFuzzyHTTP(t *testing.T) {
	cl := demoChecklist(t)
	srv := httptest.NewServer(NewService(cl, WithFuzzy(2)))
	defer srv.Close()
	client := NewClient(srv.URL)
	res, err := client.Resolve(context.Background(), "Scinax fuscomarginatis")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fuzzy || res.Distance != 1 {
		t.Fatalf("fuzzy flags lost over wire: %+v", res)
	}
}

func TestServiceAvailabilityInjection(t *testing.T) {
	cl := demoChecklist(t)
	// 50% availability, client retries up to 5 times: most requests succeed
	// eventually, and the client measures roughly the injected rate.
	svc := NewService(cl, WithAvailability(0.5, 99))
	srv := httptest.NewServer(svc)
	defer srv.Close()
	client := NewClient(srv.URL)
	client.Retries = 5
	client.Backoff = 0

	succ := 0
	for i := 0; i < 200; i++ {
		if _, err := client.Resolve(context.Background(), "Hyla faber"); err == nil {
			succ++
		}
	}
	if succ < 190 {
		t.Fatalf("only %d/200 eventually succeeded at 50%% availability with 5 retries", succ)
	}
	av := client.ObservedAvailability()
	if av < 0.40 || av > 0.60 {
		t.Fatalf("observed availability %.3f, want ≈0.5", av)
	}
	requests, refused := svc.Stats()
	if requests == 0 || refused == 0 {
		t.Fatalf("stats requests=%d refused=%d", requests, refused)
	}
}

func TestServiceTotalOutage(t *testing.T) {
	cl := demoChecklist(t)
	srv := httptest.NewServer(NewService(cl, WithAvailability(0, 1)))
	defer srv.Close()
	client := NewClient(srv.URL)
	client.Retries = 2
	client.Backoff = 0
	_, err := client.Resolve(context.Background(), "Hyla faber")
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("outage error = %v, want ErrUnavailable", err)
	}
	if client.Attempts() != 3 {
		t.Fatalf("attempts = %d, want 3 (1 + 2 retries)", client.Attempts())
	}
	if client.ObservedAvailability() != 0 {
		t.Fatalf("availability = %f during total outage", client.ObservedAvailability())
	}
}

func TestServiceEndpoints(t *testing.T) {
	cl := demoChecklist(t)
	srv := httptest.NewServer(NewService(cl))
	defer srv.Close()
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/healthz", http.StatusOK},
		{"/stats", http.StatusOK},
		{"/resolve", http.StatusBadRequest}, // missing name
		{"/bogus", http.StatusNotFound},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestBatchResolve(t *testing.T) {
	cl := demoChecklist(t)
	when := time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC)
	repl := &Taxon{ID: "T9", Name: Name{Genus: "Elachistocleis", Epithet: "cesarii"}, Status: StatusAccepted}
	if err := cl.Deprecate("Elachistocleis ovalis", repl, when, "ref"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewService(cl))
	defer srv.Close()
	client := NewClient(srv.URL)

	names := []string{"Elachistocleis ovalis", "Hyla faber", "Unknown species"}
	results, err := client.BatchResolve(context.Background(), names)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Status != StatusSynonym || results[0].AcceptedName != "Elachistocleis cesarii" {
		t.Fatalf("batch[0] = %+v", results[0])
	}
	if results[1].Status != StatusAccepted {
		t.Fatalf("batch[1] = %+v", results[1])
	}
	if results[2].Status != StatusUnknown {
		t.Fatalf("batch[2] = %+v", results[2])
	}
}

func TestBatchResolveRetriesOnOutage(t *testing.T) {
	cl := demoChecklist(t)
	srv := httptest.NewServer(NewService(cl, WithAvailability(0.5, 42)))
	defer srv.Close()
	client := NewClient(srv.URL)
	client.Retries = 10
	client.Backoff = 0
	for i := 0; i < 20; i++ {
		if _, err := client.BatchResolve(context.Background(), []string{"Hyla faber"}); err != nil {
			t.Fatalf("batch %d failed despite retries: %v", i, err)
		}
	}
	// Total outage -> ErrUnavailable.
	srv2 := httptest.NewServer(NewService(cl, WithAvailability(0, 1)))
	defer srv2.Close()
	client2 := NewClient(srv2.URL)
	client2.Retries = 1
	client2.Backoff = 0
	if _, err := client2.BatchResolve(context.Background(), []string{"Hyla faber"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("outage: %v", err)
	}
}

func TestBatchEndpointValidation(t *testing.T) {
	cl := demoChecklist(t)
	srv := httptest.NewServer(NewService(cl))
	defer srv.Close()
	// GET rejected.
	resp, err := http.Get(srv.URL + "/resolve_batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch: %d", resp.StatusCode)
	}
	// Bad JSON.
	resp, err = http.Post(srv.URL+"/resolve_batch", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: %d", resp.StatusCode)
	}
	// Empty batch.
	resp, err = http.Post(srv.URL+"/resolve_batch", "application/json", strings.NewReader(`{"names":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", resp.StatusCode)
	}
}

func TestWireRoundTrip(t *testing.T) {
	r := Resolution{
		Query:        "X y",
		Status:       StatusSynonym,
		TaxonID:      "T1",
		AcceptedName: "A b",
		AcceptedID:   "T2",
		Group:        "birds",
		Classification: Classification{
			Phylum: "Chordata", Class: "Aves", Order: "Passeriformes", Family: "Tyrannidae",
		},
		Fuzzy:    true,
		Distance: 2,
		History:  []NomenclaturalEvent{{Date: time.Date(2001, 2, 3, 0, 0, 0, 0, time.UTC), FromName: "X y", ToName: "A b", Reference: "ref"}},
	}
	got := fromWire(toWire(r))
	if got.Status != r.Status || got.AcceptedName != r.AcceptedName || got.Group != r.Group ||
		got.Classification != r.Classification || !got.Fuzzy || got.Distance != 2 || len(got.History) != 1 {
		t.Fatalf("wire round trip lost data: %+v", got)
	}
	for _, s := range []Status{StatusAccepted, StatusProvisional, StatusUnknown} {
		if fromWire(toWire(Resolution{Status: s})).Status != s {
			t.Fatalf("status %v does not round-trip", s)
		}
	}
}

// TestServiceBatchBodyCap pins the bounded process edge: a batch body past
// maxBatchBody is refused with 413, and a normal batch still resolves.
func TestServiceBatchBodyCap(t *testing.T) {
	srv := httptest.NewServer(NewService(demoChecklist(t)))
	defer srv.Close()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/resolve_batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"names":["` + strings.Repeat("a", maxBatchBody) + `"]}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch answered %d, want 413", code)
	}
	if code := post(`{"names":["Scinax fuscomarginatus"]}`); code != http.StatusOK {
		t.Fatalf("normal batch answered %d, want 200", code)
	}
}
