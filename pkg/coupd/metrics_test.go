package coupd

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postTestBatch sends one small batch through the full handler path.
func postTestBatch(t *testing.T, s *Server, body string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("batch returned %d: %s", rr.Code, rr.Body.String())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	postTestBatch(t, s, `{"updates":[
		{"kind":"counter","name":"hits","op":"add","args":[3]},
		{"kind":"counter","name":"hits","op":"add","args":[4]}]}`)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/snapshot/hits", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("snapshot returned %d", rr.Code)
	}

	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics returned %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	page := rr.Body.String()
	for _, want := range []string{
		"# TYPE coupd_batches_total counter\ncoupd_batches_total 1\n",
		"coupd_updates_total 2\n",
		"coupd_snapshots_total 1\n",
		"# TYPE coupd_batch_size histogram\n",
		"# TYPE coupd_reduce_ns histogram\n",
		"# TYPE coupd_in_flight gauge\n",
		"coupd_structures 1\n",
		"# TYPE go_goroutines gauge\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q\npage:\n%s", want, page)
		}
	}
}

func TestMetricsMatchesStatsView(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	postTestBatch(t, s, `{"updates":[{"kind":"counter","name":"a","op":"inc"}]}`)
	postTestBatch(t, s, `{"updates":[{"kind":"counter","name":"a","op":"inc"},{"kind":"counter","name":"a","op":"inc"}]}`)

	// The obs registry counts what the handler applied.
	if got := s.Metrics().Counter("coupd_batches_total", "").Value(); got != 2 {
		t.Errorf("coupd_batches_total = %d, want 2", got)
	}
	if got := s.Metrics().Counter("coupd_updates_total", "").Value(); got != 3 {
		t.Errorf("coupd_updates_total = %d, want 3", got)
	}
}
