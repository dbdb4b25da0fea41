package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func postExplain(t *testing.T, url string, req QueryRequest) (*ExplainResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query?explain=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body = io.NopCloser(bytes.NewReader(b))
		return nil, resp
	}
	var out ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp
}

// TestServerExplain: ?explain=1 plans without evaluating and returns
// both the access plan and the compiled program disassembly.
func TestServerExplain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	out, resp := postExplain(t, ts.URL, QueryRequest{
		Repo:  "people",
		Query: `FOR $p IN /site/people/person WHERE $p/age >= 28 RETURN $p/name/text()`,
	})
	if out == nil {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("explain failed: %d %s", resp.StatusCode, b)
	}
	if out.Plan == "" {
		t.Fatal("empty access plan")
	}
	for _, want := range []string{"SCAN", "ITER", "EMITSEQ"} {
		if !strings.Contains(out.Program, want) {
			t.Fatalf("program missing %q:\n%s", want, out.Program)
		}
	}
	// Explain never evaluates: no query counted, no items returned.
	if n := srv.Metrics().QueriesTotal.Load(); n != 0 {
		t.Fatalf("explain counted as a query: %d", n)
	}

	// A parse error still reports through the normal error mapping.
	_, resp = postExplain(t, ts.URL, QueryRequest{Repo: "people", Query: `FOR $x IN`})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status = %d", resp.StatusCode)
	}
	// Unknown repositories are a 404, same as evaluation.
	_, resp = postExplain(t, ts.URL, QueryRequest{Repo: "missing", Query: `count(/a)`})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown repo status = %d", resp.StatusCode)
	}
}

// TestServerPlanCacheMetrics: /metrics exports one unlabeled set of
// plan-cache counters (hits, misses, evictions), the cache sizes itself
// in compiled-program bytes, and program lengths are observed at
// compile time.
func TestServerPlanCacheMetrics(t *testing.T) {
	srv, ts := newTestServer(t, Config{PlanCacheSize: 1})
	q := QueryRequest{Repo: "numbers", Query: `count(/data/v)`}
	for i := 0; i < 3; i++ {
		if res, _ := postQuery(t, ts.URL, q); res == nil {
			t.Fatal("query failed")
		}
	}
	// A second distinct query evicts the first from the one-entry cache.
	if res, _ := postQuery(t, ts.URL, QueryRequest{Repo: "numbers", Query: `sum(/data/v)`}); res == nil {
		t.Fatal("query failed")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	for _, want := range []string{
		"xquecd_program_len_count 2",
		"xquecd_plan_cache_hits_total 2",
		"xquecd_plan_cache_misses_total 2",
		"xquecd_plan_cache_evictions_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "engine=") {
		t.Fatalf("metrics still carry an engine label:\n%s", body)
	}
	m := regexp.MustCompile(`(?m)^xquecd_plan_cache_bytes (\d+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metrics missing xquecd_plan_cache_bytes gauge:\n%s", body)
	}
	if n, _ := strconv.Atoi(m[1]); n <= 0 {
		t.Fatalf("plan cache bytes gauge = %s, want > 0", m[1])
	}

	st := srv.PlanCache().Stats()
	if st.SizeBytes <= 0 {
		t.Fatalf("plan cache SizeBytes = %d, want > 0", st.SizeBytes)
	}
	if st.Entries != 1 || st.Hits != 2 || st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if snap := srv.Metrics().Snapshot(); snap.PlanHits != 2 || snap.PlanMisses != 2 || snap.PlanEvictions != 1 {
		t.Fatalf("snapshot plan counters = %d/%d/%d", snap.PlanHits, snap.PlanMisses, snap.PlanEvictions)
	}
}
