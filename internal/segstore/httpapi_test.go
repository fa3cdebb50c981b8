package segstore_test

// The query API is tested from outside the package, against a store
// populated by a real continuous run: experiments.RunContinuousOpts
// with a MemFS-backed segstore beneath the windowed store — the same
// wiring cmd/vpm-node uses, minus the process boundary.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vpm/internal/core"
	"vpm/internal/experiments"
	"vpm/internal/segstore"
)

const apiIntervalNS = int64(5e7)

// runBackedPipeline runs a short continuous pipeline persisting into a
// fresh MemFS-backed store and returns the store and the run result.
func runBackedPipeline(t *testing.T, epochs int) (*segstore.Store, *experiments.ContinuousResult) {
	t.Helper()
	store, _, err := segstore.Open("", segstore.Options{FS: segstore.NewMemFS()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cfg := experiments.Config{Seed: 7, RatePPS: 20_000, DurationNS: apiIntervalNS}
	ec := core.EpochConfig{IntervalNS: apiIntervalNS, Retention: 2}
	res, err := experiments.RunContinuousOpts(cfg, ec, epochs, experiments.ContinuousOptions{
		Backend: segstore.Backend{Store: store},
	})
	if err != nil {
		t.Fatalf("RunContinuousOpts: %v", err)
	}
	return store, res
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
	return resp
}

func TestQueryAPIServesVerbatimVerdicts(t *testing.T) {
	store, res := runBackedPipeline(t, 4)
	srv := httptest.NewServer(segstore.NewHandler(store, segstore.APIConfig{IntervalNS: apiIntervalNS}))
	defer srv.Close()

	var epochsResp struct {
		Sealed     []uint64       `json:"sealed"`
		LastSealed *uint64        `json:"last_sealed"`
		Reports    []uint64       `json:"reports"`
		Stats      segstore.Stats `json:"stats"`
	}
	getJSON(t, srv, "/api/v1/epochs", &epochsResp)
	if len(epochsResp.Sealed) != res.EpochsSealed {
		t.Fatalf("sealed %v, run sealed %d epochs", epochsResp.Sealed, res.EpochsSealed)
	}
	if len(epochsResp.Reports) != len(res.Reports) {
		t.Fatalf("%d reports via API, run produced %d", len(epochsResp.Reports), len(res.Reports))
	}
	if epochsResp.LastSealed == nil || *epochsResp.LastSealed != uint64(res.EpochsSealed-1) {
		t.Fatalf("last_sealed = %v, want %d", epochsResp.LastSealed, res.EpochsSealed-1)
	}

	var verdicts struct {
		Epochs  []uint64          `json:"epochs"`
		Reports []json.RawMessage `json:"reports"`
	}
	getJSON(t, srv, "/api/v1/verdicts", &verdicts)
	if len(verdicts.Reports) != len(res.Reports) {
		t.Fatalf("%d verdicts via API, want %d", len(verdicts.Reports), len(res.Reports))
	}
	// Unfiltered responses, rendered from the stored records, are
	// byte-identical to the canonical encodings of the verifier's
	// reports.
	for i, rep := range res.Reports {
		want, err := core.EncodeEpochReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(verdicts.Reports[i], want) {
			t.Fatalf("epoch %d verdict differs from canonical encoding", rep.Epoch)
		}
	}

	// Epoch-range filter.
	var ranged struct {
		Epochs []uint64 `json:"epochs"`
	}
	getJSON(t, srv, "/api/v1/verdicts?from=1&to=2", &ranged)
	if len(ranged.Epochs) != 2 || ranged.Epochs[0] != 1 || ranged.Epochs[1] != 2 {
		t.Fatalf("from=1&to=2 returned epochs %v", ranged.Epochs)
	}
	// Time-range filter: the second epoch's interval.
	ranged.Epochs = nil
	getJSON(t, srv, "/api/v1/verdicts?from_ns=50000000&to_ns=99999999", &ranged)
	if len(ranged.Epochs) != 1 || ranged.Epochs[0] != 1 {
		t.Fatalf("time-ranged query returned epochs %v, want [1]", ranged.Epochs)
	}
}

func TestQueryAPIFilters(t *testing.T) {
	store, res := runBackedPipeline(t, 3)
	srv := httptest.NewServer(segstore.NewHandler(store, segstore.APIConfig{IntervalNS: apiIntervalNS}))
	defer srv.Close()

	// Pull a real key and domain out of the run's reports.
	var key, domain string
	for _, rep := range res.Reports {
		for _, kr := range rep.Keys {
			key = kr.Key.String()
			for _, dr := range kr.Domains {
				domain = dr.Name
				break
			}
			break
		}
		if key != "" && domain != "" {
			break
		}
	}
	if key == "" || domain == "" {
		t.Fatalf("run produced no keyed domain reports to filter on")
	}

	var filtered struct {
		Epochs  []uint64          `json:"epochs"`
		Reports []json.RawMessage `json:"reports"`
	}
	getJSON(t, srv, "/api/v1/verdicts?key="+key, &filtered)
	if len(filtered.Reports) == 0 {
		t.Fatalf("key filter %q matched nothing", key)
	}
	for _, blob := range filtered.Reports {
		rep, err := core.DecodeEpochReport(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, kr := range rep.Keys {
			if kr.Key.String() != key {
				t.Fatalf("key filter leaked key %s", kr.Key)
			}
		}
	}

	filtered.Reports = nil
	getJSON(t, srv, "/api/v1/verdicts?domain="+domain, &filtered)
	if len(filtered.Reports) == 0 {
		t.Fatalf("domain filter %q matched nothing", domain)
	}
	for _, blob := range filtered.Reports {
		rep, err := core.DecodeEpochReport(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, kr := range rep.Keys {
			if len(kr.Domains) == 0 {
				t.Fatal("domain filter kept a key with no matching domains")
			}
			for _, dr := range kr.Domains {
				if dr.Name != domain {
					t.Fatalf("domain filter leaked domain %s", dr.Name)
				}
			}
		}
	}

	// Bad inputs are 400s, wrong methods 405s.
	if resp := getJSON(t, srv, "/api/v1/verdicts?key=notakey", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/api/v1/verdicts?from=3&to=1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted range: status %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/api/v1/verdicts?from_ns=abc", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from_ns: status %d, want 400", resp.StatusCode)
	}
	post, err := srv.Client().Post(srv.URL+"/api/v1/verdicts", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", post.StatusCode)
	}
}

func TestQueryAPIMetrics(t *testing.T) {
	store, res := runBackedPipeline(t, 3)
	srv := httptest.NewServer(segstore.NewHandler(store, segstore.APIConfig{IntervalNS: apiIntervalNS}))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"vpm_store_sealed_epochs",
		"vpm_store_reports",
		"vpm_violations_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if res.Violations != 0 {
		t.Fatalf("honest run produced %d violations", res.Violations)
	}
}
