package coupd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/pkg/obs"
)

func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postBatch(t *testing.T, url string, b BatchRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// isDraining reads s's draining flag.
func (s *Server) isDraining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestE2EConcurrentBatchedWriters is the service's equivalence suite: N
// concurrent writers each POST batched updates to shared structures
// while a reader takes periodic snapshots; afterwards every server-side
// reduction must equal exactly the applied update count. Run under
// -race this also stresses the full handler/registry/commute stack.
func TestE2EConcurrentBatchedWriters(t *testing.T) {
	s, ts := newTestServer(t)
	const (
		writers = 8
		batches = 20
		perB    = 50 // records per batch
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // periodic snapshots racing the writers
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var snap Snapshot
			getJSON(t, ts.URL+"/v1/snapshot/hits", &snap)
			var bulk BulkSnapshot
			getJSON(t, ts.URL+"/v1/snapshot", &bulk)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				var req BatchRequest
				for i := 0; i < perB; i++ {
					req.Updates = append(req.Updates,
						Update{Name: "hits", Kind: "counter", Op: "inc"},
						Update{Name: "lat", Kind: "hist", Op: "add", Args: []int64{int64(i % 32), 2}, Bins: 32},
						Update{Name: "span", Kind: "minmax", Op: "observe", Args: []int64{int64(w*1000 + i)}},
						Update{Name: "refs", Kind: "refcount", Op: "inc"},
					)
				}
				resp, out := postBatch(t, ts.URL, req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d batch %d: HTTP %d: %s", w, b, resp.StatusCode, out)
					return
				}
				var br BatchResponse
				if err := json.Unmarshal(out, &br); err != nil || br.Applied != 4*perB {
					t.Errorf("writer %d batch %d: applied %d, err %v", w, b, br.Applied, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	want := int64(writers * batches * perB)
	var snap Snapshot
	if code := getJSON(t, ts.URL+"/v1/snapshot/hits", &snap); code != http.StatusOK {
		t.Fatalf("snapshot hits: HTTP %d", code)
	}
	if snap.Value != want {
		t.Errorf("counter reduced to %d, want %d", snap.Value, want)
	}
	if code := getJSON(t, ts.URL+"/v1/snapshot/lat", &snap); code != http.StatusOK {
		t.Fatalf("snapshot lat: HTTP %d", code)
	}
	if snap.Total != uint64(2*want) || len(snap.Bins) != 32 {
		t.Errorf("hist total %d (bins %d), want %d (32)", snap.Total, len(snap.Bins), 2*want)
	}
	if code := getJSON(t, ts.URL+"/v1/snapshot/span", &snap); code != http.StatusOK {
		t.Fatalf("snapshot span: HTTP %d", code)
	}
	if snap.N != uint64(want) || snap.Min != 0 || snap.Max != int64((writers-1)*1000+perB-1) {
		t.Errorf("minmax n=%d min=%d max=%d, want n=%d min=0 max=%d", snap.N, snap.Min, snap.Max, want, (writers-1)*1000+perB-1)
	}
	if code := getJSON(t, ts.URL+"/v1/snapshot/refs", &snap); code != http.StatusOK {
		t.Fatalf("snapshot refs: HTTP %d", code)
	}
	if snap.Value != want {
		t.Errorf("refcount reduced to %d, want %d", snap.Value, want)
	}

	if got := s.updates.Value(); got != 4*want {
		t.Errorf("coupd_updates_total = %d, want %d", got, 4*want)
	}
	if got := s.batches.Value(); got != writers*batches {
		t.Errorf("coupd_batches_total = %d, want %d", got, writers*batches)
	}
	if got := s.reg.Len(); got != 4 {
		t.Errorf("coupd_structures = %d, want 4", got)
	}
	var reduce obs.HistSnapshot
	s.reduceNs.Snapshot(&reduce)
	if s.snapshots.Value() == 0 || reduce.Max == 0 {
		t.Errorf("read-plane telemetry empty: %d snapshots, reduce max %d ns", s.snapshots.Value(), reduce.Max)
	}
	if got := s.depth.Value(); got != 0 {
		t.Errorf("coupd_in_flight = %d after quiescence", got)
	}
}

// slowBatch opens a batch request whose body stalls until release is
// called: the handler acquires its in-flight slot, then blocks in
// decode, deterministically holding the semaphore.
func slowBatch(t *testing.T, url string) (release func(), done <-chan *http.Response) {
	t.Helper()
	pr, pw := io.Pipe()
	ch := make(chan *http.Response, 1)
	go func() {
		req, _ := http.NewRequest("POST", url+"/v1/batch", pr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			ch <- nil
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ch <- resp
	}()
	// Feed the opening of a valid body so the handler is inside Decode.
	if _, err := pw.Write([]byte(`{"updates":[{"name":"x","kind":"counter","op":"inc"}`)); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pw.Write([]byte(`]}`))
			pw.Close()
		})
	}, ch
}

// TestBackpressure429 pins saturation behavior: with MaxInFlight(1) and
// one batch deterministically stalled in the handler, the next batch
// must get 429 with a Retry-After header and count as rejected; after
// the stall clears, batches flow again.
func TestBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, WithMaxInFlight(1))
	release, done := slowBatch(t, ts.URL)
	defer release()
	waitFor(t, "the stalled batch holds the in-flight slot", func() bool { return s.depth.Value() == 1 })

	resp, out := postBatch(t, ts.URL, BatchRequest{Updates: []Update{{Name: "y", Kind: "counter", Op: "inc"}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: HTTP %d: %s", resp.StatusCode, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil || !strings.Contains(er.Error, "saturated") {
		t.Errorf("429 body %q, err %v", out, err)
	}

	release()
	if resp := <-done; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stalled batch resolved to %+v", resp)
	}
	resp, out = postBatch(t, ts.URL, BatchRequest{Updates: []Update{{Name: "y", Kind: "counter", Op: "inc"}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-stall batch: HTTP %d: %s", resp.StatusCode, out)
	}
	if got := s.rejected.Value(); got != 1 {
		t.Errorf("coupd_rejected_total = %d, want 1", got)
	}
}

// TestGracefulDrain pins shutdown semantics: Drain waits for in-flight
// batches (which land and are acknowledged), rejects new batches with
// 503, and leaves the read plane serving.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t)
	release, done := slowBatch(t, ts.URL)
	defer release()
	waitFor(t, "the stalled batch holds the in-flight slot", func() bool { return s.depth.Value() == 1 })

	// Drain with the batch still stalled: must time out, not return early.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	err := s.Drain(ctx)
	cancel()
	if err == nil {
		t.Fatal("Drain returned with a batch still in flight")
	}

	// New batches are rejected while draining.
	resp, out := postBatch(t, ts.URL, BatchRequest{Updates: []Update{{Name: "z", Kind: "counter", Op: "inc"}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining batch: HTTP %d: %s", resp.StatusCode, out)
	}

	// Release the stalled batch: Drain completes, the update landed.
	release()
	if resp := <-done; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight batch resolved to %+v during drain", resp)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	var snap Snapshot
	if code := getJSON(t, ts.URL+"/v1/snapshot/x", &snap); code != http.StatusOK || snap.Value != 1 {
		t.Errorf("drained snapshot x: HTTP %d, value %d (want 200, 1)", code, snap.Value)
	}
	if !s.isDraining() {
		t.Error("server does not report draining")
	}
}

// TestRegistryTypedErrors pins the error taxonomy and its pkg/coup-style
// messages (unknown names list the valid set).
func TestRegistryTypedErrors(t *testing.T) {
	g := NewRegistry()
	cases := []struct {
		u    Update
		want error
	}{
		{Update{Name: "a", Kind: "bogus", Op: "inc"}, ErrUnknownKind},
		{Update{Name: "", Kind: "counter", Op: "inc"}, ErrBadUpdate},
		{Update{Name: "a/b", Kind: "counter", Op: "inc"}, ErrBadUpdate},
		{Update{Name: "c", Kind: "counter", Op: "observe"}, ErrUnknownOp},
		{Update{Name: "c", Kind: "counter", Op: "add"}, ErrBadUpdate},                 // missing delta
		{Update{Name: "h", Kind: "hist", Op: "inc", Args: []int64{99}}, ErrBadUpdate}, // bin >= DefaultBins
		{Update{Name: "h", Kind: "hist", Op: "add", Args: []int64{1, -2}}, ErrBadUpdate},
		{Update{Name: "m", Kind: "minmax", Op: "inc"}, ErrUnknownOp},
		{Update{Name: "r", Kind: "refcount", Op: "observe", Args: []int64{1}}, ErrUnknownOp},
	}
	// Seed the entries the arg-error cases assume exist.
	for _, u := range []Update{
		{Name: "c", Kind: "counter", Op: "inc"},
		{Name: "h", Kind: "hist", Op: "inc", Args: []int64{0}},
		{Name: "m", Kind: "minmax", Op: "observe", Args: []int64{1}},
		{Name: "r", Kind: "refcount", Op: "inc"},
	} {
		if err := g.Apply(&u); err != nil {
			t.Fatalf("seed %v: %v", u, err)
		}
	}
	for _, tc := range cases {
		err := g.Apply(&tc.u)
		if !errors.Is(err, tc.want) {
			t.Errorf("Apply(%+v) = %v, want %v", tc.u, err, tc.want)
		}
	}
	// Kind mismatch on an existing name.
	err := g.Apply(&Update{Name: "c", Kind: "hist", Op: "inc", Args: []int64{0}})
	if !errors.Is(err, ErrKindMismatch) {
		t.Errorf("kind mismatch = %v", err)
	}
	// Unknown-kind errors list the valid kinds, pkg/coup style.
	err = g.Apply(&Update{Name: "a", Kind: "bogus", Op: "inc"})
	for _, k := range Kinds() {
		if !strings.Contains(err.Error(), string(k)) {
			t.Errorf("unknown-kind error %q does not list %q", err, k)
		}
	}
	// Unknown-op errors list the kind's ops.
	err = g.Apply(&Update{Name: "c", Kind: "counter", Op: "bogus"})
	if !strings.Contains(err.Error(), "inc, dec, add") {
		t.Errorf("unknown-op error %q does not list counter ops", err)
	}
	// Snapshot of a never-updated name.
	var sc snapScratch
	var snap Snapshot
	if err := g.Snapshot("nope", &sc, &snap); !errors.Is(err, ErrUnknownName) {
		t.Errorf("Snapshot(nope) = %v, want ErrUnknownName", err)
	}
}

// TestBareBatchValidateThenApply pins the write contract for a bare
// (unsequenced) batch: a bad record rejects the whole batch with a 400
// naming it, nothing applies or is counted, and the corrected batch,
// resent whole, applies exactly once.
func TestBareBatchValidateThenApply(t *testing.T) {
	s, ts := newTestServer(t)
	updates := s.Metrics().Counter("coupd_updates_total", "")
	batches := s.Metrics().Counter("coupd_batches_total", "")
	req := BatchRequest{Updates: []Update{
		inc("p"), inc("p"),
		{Name: "p", Kind: "counter", Op: "warp"}, // bad
		inc("p"),
	}}
	resp, out := postBatch(t, ts.URL, req)
	var body map[string]json.RawMessage
	if err := json.Unmarshal(out, &body); err != nil || resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body["error"]), "record 2") || len(body) != 1 {
		t.Fatalf("bad batch: HTTP %d: %s (err %v), want 400 with only an error naming record 2", resp.StatusCode, out, err)
	}
	if v := counterValue(t, ts.URL, "p"); v != 0 {
		t.Errorf("counter p = %d after the rejected batch, want 0", v)
	}
	if n, b := updates.Value(), batches.Value(); n != 0 || b != 0 {
		t.Errorf("rejected batch counted: coupd_updates_total %d, coupd_batches_total %d, want 0 and 0", n, b)
	}

	req.Updates[2] = inc("p")
	if resp, out = postBatch(t, ts.URL, req); resp.StatusCode != http.StatusOK {
		t.Fatalf("corrected resend: HTTP %d: %s", resp.StatusCode, out)
	}
	if v := counterValue(t, ts.URL, "p"); v != 4 {
		t.Errorf("counter p = %d after the corrected resend, want 4", v)
	}
	if n, b := updates.Value(), batches.Value(); n != 4 || b != 1 {
		t.Errorf("coupd_updates_total %d, coupd_batches_total %d after the corrected resend, want 4 and 1", n, b)
	}
}

// TestBatchDecodeReuseIsolation pins the pooled-decode fix: a record
// that omits optional fields must not inherit them from a previous
// batch decoded into the same pooled buffer.
func TestBatchDecodeReuseIsolation(t *testing.T) {
	_, ts := newTestServer(t)
	// First batch: hist records with Args set.
	resp, out := postBatch(t, ts.URL, BatchRequest{Updates: []Update{
		{Name: "h1", Kind: "hist", Op: "inc", Args: []int64{3}},
		{Name: "h1", Kind: "hist", Op: "inc", Args: []int64{5}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hist batch: HTTP %d: %s", resp.StatusCode, out)
	}
	// Until the pool round-trips (single-threaded here, so it does), a
	// counter inc with no args decoded into the same buffer would have
	// seen the stale Args and been rejected.
	for i := 0; i < 4; i++ {
		resp, out = postBatch(t, ts.URL, BatchRequest{Updates: []Update{
			{Name: "c1", Kind: "counter", Op: "inc"},
			{Name: "c1", Kind: "counter", Op: "inc"},
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("counter batch %d: HTTP %d: %s", i, resp.StatusCode, out)
		}
	}
	var snap Snapshot
	getJSON(t, ts.URL+"/v1/snapshot/c1", &snap)
	if snap.Value != 8 {
		t.Errorf("counter c1 = %d, want 8", snap.Value)
	}
}

// TestOptionValidation: bad options are rejected at New.
func TestOptionValidation(t *testing.T) {
	if _, err := New(WithMaxInFlight(0)); err == nil {
		t.Error("WithMaxInFlight(0) accepted")
	}
	s, err := New(WithMaxInFlight(7), nil)
	if err != nil || s.maxInFlight != 7 {
		t.Errorf("New = %v, maxInFlight %d", err, s.maxInFlight)
	}
}

// TestCreateRace: concurrent first updates to one name must converge on
// one structure (no lost updates from a discarded creation-race loser).
func TestCreateRace(t *testing.T) {
	g := NewRegistry()
	const gr = 16
	var wg sync.WaitGroup
	for i := 0; i < gr; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				u := Update{Name: "shared", Kind: "counter", Op: "inc"}
				if err := g.Apply(&u); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var sc snapScratch
	var snap Snapshot
	if err := g.Snapshot("shared", &sc, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Value != gr*100 {
		t.Errorf("raced counter = %d, want %d", snap.Value, gr*100)
	}
	if g.Len() != 1 {
		t.Errorf("registry has %d structures, want 1", g.Len())
	}
}

// TestHistBinsFixedAtCreation: the first update sizes the histogram;
// later Bins values are ignored, later out-of-range bins rejected.
func TestHistBinsFixedAtCreation(t *testing.T) {
	g := NewRegistry()
	if err := g.Apply(&Update{Name: "h", Kind: "hist", Op: "inc", Args: []int64{7}, Bins: 8}); err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(&Update{Name: "h", Kind: "hist", Op: "inc", Args: []int64{3}, Bins: 4096}); err != nil {
		t.Fatalf("resize attempt must be ignored, got %v", err)
	}
	if err := g.Apply(&Update{Name: "h", Kind: "hist", Op: "inc", Args: []int64{8}}); !errors.Is(err, ErrBadUpdate) {
		t.Errorf("out-of-range bin = %v, want ErrBadUpdate", err)
	}
	if err := g.Apply(&Update{Name: "big", Kind: "hist", Op: "inc", Args: []int64{0}, Bins: MaxBins + 1}); !errors.Is(err, ErrBadUpdate) {
		t.Errorf("oversized create = %v, want ErrBadUpdate", err)
	}
	var sc snapScratch
	var snap Snapshot
	if err := g.Snapshot("h", &sc, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Bins) != 8 || snap.Total != 2 {
		t.Errorf("hist snapshot bins=%d total=%d, want 8, 2", len(snap.Bins), snap.Total)
	}
}

// TestBulkSnapshot: every structure appears once, sorted, with
// independent (non-aliased) histogram bin slices.
func TestBulkSnapshot(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := postBatch(t, ts.URL, BatchRequest{Updates: []Update{
		{Name: "b", Kind: "hist", Op: "inc", Args: []int64{1}, Bins: 4},
		{Name: "a", Kind: "hist", Op: "inc", Args: []int64{2}, Bins: 8},
		{Name: "c", Kind: "counter", Op: "add", Args: []int64{5}},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, out)
	}
	var bulk BulkSnapshot
	if code := getJSON(t, ts.URL+"/v1/snapshot", &bulk); code != http.StatusOK {
		t.Fatalf("bulk: HTTP %d", code)
	}
	if len(bulk.Structures) != 3 {
		t.Fatalf("bulk has %d structures, want 3", len(bulk.Structures))
	}
	names := make([]string, len(bulk.Structures))
	for i, s := range bulk.Structures {
		names[i] = s.Name
	}
	if fmt.Sprint(names) != "[a b c]" {
		t.Errorf("bulk order %v, want [a b c]", names)
	}
	if len(bulk.Structures[0].Bins) != 8 || len(bulk.Structures[1].Bins) != 4 {
		t.Errorf("bulk bins aliased or wrong: a=%d b=%d", len(bulk.Structures[0].Bins), len(bulk.Structures[1].Bins))
	}
}
