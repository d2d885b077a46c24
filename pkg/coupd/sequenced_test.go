package coupd

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

func seqBatch(client string, seq uint64, updates ...Update) BatchRequest {
	return BatchRequest{Client: client, Seq: seq, Updates: updates}
}

func inc(name string) Update {
	return Update{Name: name, Kind: "counter", Op: "inc"}
}

func counterValue(t *testing.T, url, name string) int64 {
	t.Helper()
	var snap Snapshot
	status := getJSON(t, url+"/v1/snapshot/"+name, &snap)
	if status == http.StatusNotFound {
		return 0
	}
	if status != http.StatusOK {
		t.Fatalf("snapshot %s: HTTP %d", name, status)
	}
	return snap.Value
}

// TestSequencedDedupReplay pins the tentpole contract: a re-POSTed
// sequenced batch is answered with its original Applied and applies
// nothing the second time.
func TestSequencedDedupReplay(t *testing.T) {
	s, ts := newTestServer(t)
	b := seqBatch("c1", 1, inc("sq"), inc("sq"), inc("sq"))

	resp, out := postBatch(t, ts.URL, b)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST: HTTP %d: %s", resp.StatusCode, out)
	}
	var br BatchResponse
	if err := json.Unmarshal(out, &br); err != nil || br.Applied != 3 || br.Deduped {
		t.Fatalf("first ack %s (err %v), want applied 3, not deduped", out, err)
	}

	resp, out = postBatch(t, ts.URL, b)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replayed POST: HTTP %d: %s", resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, &br); err != nil || br.Applied != 3 || !br.Deduped {
		t.Fatalf("replay ack %s (err %v), want applied 3, deduped", out, err)
	}
	if v := counterValue(t, ts.URL, "sq"); v != 3 {
		t.Errorf("counter after replay = %d, want 3 (no double apply)", v)
	}

	sessions, hits, replays := s.sessions.size(), s.sessions.dedupHits.Value(), s.sessions.replays.Value()
	if sessions != 1 || hits != 1 || replays != 1 {
		t.Errorf("sessions/dedup hits/replays = %d/%d/%d, want 1/1/1", sessions, hits, replays)
	}
	if got := s.updates.Value(); got != 3 {
		t.Errorf("coupd_updates_total = %d, want 3", got)
	}
}

// TestSequencedValidateThenApply pins atomicity: a sequenced batch with
// a bad record in the middle applies nothing, and the same seq can be
// retried with the corrected batch.
func TestSequencedValidateThenApply(t *testing.T) {
	_, ts := newTestServer(t)
	bad := seqBatch("c2", 1, inc("vta"),
		Update{Name: "vta", Kind: "counter", Op: "no-such-op"}, inc("vta"))

	resp, out := postBatch(t, ts.URL, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch: HTTP %d: %s", resp.StatusCode, out)
	}
	var er ErrorResponse
	if err := json.Unmarshal(out, &er); err != nil || !strings.Contains(er.Error, "record 1") {
		t.Fatalf("bad batch body %s (err %v), want an error naming record 1", out, err)
	}
	if v := counterValue(t, ts.URL, "vta"); v != 0 {
		t.Fatalf("counter after rejected batch = %d, want 0 (validate-then-apply)", v)
	}

	good := seqBatch("c2", 1, inc("vta"), inc("vta"), inc("vta"))
	resp, out = postBatch(t, ts.URL, good)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrected retry of seq 1: HTTP %d: %s", resp.StatusCode, out)
	}
	if v := counterValue(t, ts.URL, "vta"); v != 3 {
		t.Errorf("counter after corrected retry = %d, want 3", v)
	}
}

// TestSequencedSeqValidation pins that a sequenced batch needs seq >= 1.
func TestSequencedSeqValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp, out := postBatch(t, ts.URL, seqBatch("c3", 0, inc("z")))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("seq 0: HTTP %d: %s, want 400", resp.StatusCode, out)
	}
}

// TestSequencedClientIDBound pins the client id limit: a session keeps
// its id, so an id over 256 bytes is rejected before any session or
// structure exists, and one of 256 bytes opens a session as usual.
func TestSequencedClientIDBound(t *testing.T) {
	s, ts := newTestServer(t)
	sessions := s.Metrics().Gauge("coupd_sessions", "", nil)
	id := strings.Repeat("c", 257)
	resp, out := postBatch(t, ts.URL, seqBatch(id, 1, inc("cl")))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), ErrBadUpdate.Error()) {
		t.Fatalf("257-byte client id: HTTP %d: %s, want 400 %v", resp.StatusCode, out, ErrBadUpdate)
	}
	if n, structures := sessions.Value(), s.reg.Len(); n != 0 || structures != 0 {
		t.Errorf("rejected id left %d sessions and %d structures, want 0 and 0", n, structures)
	}
	resp, out = postBatch(t, ts.URL, seqBatch(id[:256], 1, inc("cl")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("256-byte client id: HTTP %d: %s", resp.StatusCode, out)
	}
	if n := sessions.Value(); n != 1 {
		t.Errorf("coupd_sessions = %d after an accepted id, want 1", n)
	}
}

func TestSequencedStaleSeq409(t *testing.T) {
	_, ts := newTestServer(t)
	for seq := uint64(1); seq <= sessionWindow+1; seq++ {
		resp, out := postBatch(t, ts.URL, seqBatch("c4", seq, inc("st")))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seq %d: HTTP %d: %s", seq, resp.StatusCode, out)
		}
	}
	resp, out := postBatch(t, ts.URL, seqBatch("c4", 1, inc("st")))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale seq 1: HTTP %d: %s, want 409", resp.StatusCode, out)
	}
	if v := counterValue(t, ts.URL, "st"); v != sessionWindow+1 {
		t.Errorf("counter = %d, want %d (stale batch applied nothing)", v, sessionWindow+1)
	}
}

// TestSequencedEvictedSession pins the eviction half of ErrStaleSeq: a
// retry of seq 2 after its session was evicted — by the LRU cap or by
// the idle TTL — cannot be told apart from a batch that never applied,
// so it gets 409, applies nothing, and opens no session.
func TestSequencedEvictedSession(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  []Option
		evict func(t *testing.T, url string)
	}{
		{"lru", []Option{WithDedupSessions(1, time.Hour)}, func(t *testing.T, url string) {
			if resp, out := postBatch(t, url, seqBatch("b", 1, inc("other"))); resp.StatusCode != http.StatusOK {
				t.Fatalf("client b seq 1: HTTP %d: %s", resp.StatusCode, out)
			}
		}},
		{"ttl", []Option{WithDedupSessions(DefaultMaxSessions, 20*time.Millisecond)}, func(*testing.T, string) {
			time.Sleep(50 * time.Millisecond)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.opts...)
			for seq := uint64(1); seq <= 2; seq++ {
				if resp, out := postBatch(t, ts.URL, seqBatch("a", seq, inc("ev"))); resp.StatusCode != http.StatusOK {
					t.Fatalf("client a seq %d: HTTP %d: %s", seq, resp.StatusCode, out)
				}
			}
			tc.evict(t, ts.URL)

			// a's ack of seq 2 was lost; it re-posts the same batch.
			resp, out := postBatch(t, ts.URL, seqBatch("a", 2, inc("ev")))
			if resp.StatusCode != http.StatusConflict || !strings.Contains(string(out), ErrStaleSeq.Error()) {
				t.Errorf("retry of seq 2 after eviction: HTTP %d: %s, want 409 %v", resp.StatusCode, out, ErrStaleSeq)
			}
			if v := counterValue(t, ts.URL, "ev"); v != 2 {
				t.Errorf("counter = %d, want 2 (the retried seq 2 applied twice)", v)
			}
			if s.sessions.get("a", false) != nil {
				t.Error("the rejected retry opened a new session for client a")
			}
		})
	}
}

// TestPanicRecovery pins the recovery middleware: an injected panic at
// the apply point becomes a 500 and a coupd_panics_total tick, the
// semaphore slot is released, and — because the panic fired before any
// ack — the same seq retries to success with no double apply.
func TestPanicRecovery(t *testing.T) {
	var calls int
	hook := func() {
		calls++
		if calls == 1 {
			panic("poisoned batch")
		}
	}
	s, ts := newTestServer(t, WithMaxInFlight(1), WithApplyHook(hook))

	b := seqBatch("c5", 1, inc("pr"), inc("pr"))
	resp, out := postBatch(t, ts.URL, b)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned batch: HTTP %d: %s, want 500", resp.StatusCode, out)
	}
	if v := counterValue(t, ts.URL, "pr"); v != 0 {
		t.Fatalf("counter after panic = %d, want 0 (hook fires before records land)", v)
	}

	// Retry same seq: proves both exactly-once-through-panic and that the
	// MaxInFlight(1) slot was released on the unwind.
	resp, out = postBatch(t, ts.URL, b)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after panic: HTTP %d: %s", resp.StatusCode, out)
	}
	if v := counterValue(t, ts.URL, "pr"); v != 2 {
		t.Errorf("counter after retry = %d, want 2", v)
	}

	if got := s.panics.Value(); got != 1 {
		t.Errorf("coupd_panics_total = %d, want 1", got)
	}
	if got := s.depth.Value(); got != 0 {
		t.Errorf("coupd_in_flight = %d after unwind, want 0", got)
	}
}

// TestDrainAnswersAckedSequenced pins the drain-time dedup answer: a
// draining server still acknowledges an already-applied sequenced batch
// from its session table (applying nothing), while unseen batches get
// 503 — the property that reconciles applied-but-unacked retries with a
// mid-storm shutdown.
func TestDrainAnswersAckedSequenced(t *testing.T) {
	s, ts := newTestServer(t)
	b := seqBatch("c6", 1, inc("dd"), inc("dd"))
	if resp, out := postBatch(t, ts.URL, b); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain batch: HTTP %d: %s", resp.StatusCode, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	resp, out := postBatch(t, ts.URL, b) // the retry whose ack was "lost"
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain-time replay: HTTP %d: %s, want 200", resp.StatusCode, out)
	}
	var br BatchResponse
	if err := json.Unmarshal(out, &br); err != nil || br.Applied != 2 || !br.Deduped {
		t.Fatalf("drain-time replay ack %s (err %v), want applied 2, deduped", out, err)
	}
	resp, out = postBatch(t, ts.URL, seqBatch("c6", 2, inc("dd")))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new batch while draining: HTTP %d: %s, want 503", resp.StatusCode, out)
	}
	if v := counterValue(t, ts.URL, "dd"); v != 2 {
		t.Errorf("counter = %d, want 2", v)
	}
}

// TestDrainRacingRetryNeverSplits is the satellite race: a sequenced
// writer stuck in 429 backoff while Drain flips. The batch must end
// fully applied (acked) or cleanly rejected (unacked) — never split —
// and here, since the in-flight slot is held until after the flip, it
// must be the clean rejection.
func TestDrainRacingRetryNeverSplits(t *testing.T) {
	s, ts := newTestServer(t, WithMaxInFlight(1))
	release, done := slowBatch(t, ts.URL)
	defer release()
	waitFor(t, "the stalled batch holds the in-flight slot", func() bool { return s.depth.Value() == 1 })

	cl := NewClient(ts.URL,
		WithBackoff(time.Millisecond, 4*time.Millisecond),
		WithRetryBudget(10*time.Second))
	sess := cl.Session("drain-race")
	sendErr := make(chan error, 1)
	go func() {
		_, err := sess.Send(context.Background(), []Update{inc("race")})
		sendErr <- err
	}()
	// The writer is provably in its 429 retry loop once a rejection shows.
	waitFor(t, "a batch is rejected", func() bool { return s.rejected.Value() >= 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "the server drains", s.isDraining)

	release() // let the slot-holding batch land so Drain completes
	if resp := <-done; resp == nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("slot-holding batch resolved to %+v", resp)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	err := <-sendErr
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("racing Send returned %v, want a 503 RemoteError", err)
	}
	// Never split: the rejected batch applied nothing at all (the counter
	// was never even created), and the slot-holder's update is intact.
	var snap Snapshot
	if status := getJSON(t, ts.URL+"/v1/snapshot/race", &snap); status != http.StatusNotFound {
		t.Errorf("rejected batch left structure 'race' behind (HTTP %d, value %d)", status, snap.Value)
	}
	if v := counterValue(t, ts.URL, "x"); v != 1 {
		t.Errorf("slot-holder counter = %d, want 1", v)
	}
}

// TestRetryAfterMsHeader pins the millisecond backpressure hint riding
// alongside the whole-second standard header on 429s.
func TestRetryAfterMsHeader(t *testing.T) {
	s, ts := newTestServer(t, WithMaxInFlight(1))
	release, done := slowBatch(t, ts.URL)
	defer release()
	waitFor(t, "the stalled batch holds the in-flight slot", func() bool { return s.depth.Value() == 1 })

	resp, out := postBatch(t, ts.URL, BatchRequest{Updates: []Update{inc("ra")}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d: %s, want 429", resp.StatusCode, out)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if got := resp.Header.Get("Retry-After-Ms"); got != strconv.Itoa(RetryAfterMs) {
		t.Errorf("Retry-After-Ms = %q, want %d", got, RetryAfterMs)
	}
	release()
	<-done
}

// TestSequencedApplyZeroAllocs alloc-pins the steady-state sequenced
// apply path — session lookup, dedup check, validate-then-apply, ack,
// telemetry — at zero allocations per batch once structures, session,
// and scratch buffers exist. The static half of this guarantee is
// coupvet's hotalloc/-escapes pass over the //coup:hotpath annotations.
func TestSequencedApplyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates (and sync.Pool drops Puts under race)")
	}
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	req := &BatchRequest{Client: "alloc-pin", Updates: make([]Update, 64)}
	for i := range req.Updates {
		req.Updates[i] = inc("za" + strconv.Itoa(i%4))
	}
	var seq uint64
	run := func() {
		seq++
		req.Seq = seq
		applied, deduped, err := s.applySequencedBatch(req)
		if err != nil || deduped || applied != len(req.Updates) {
			t.Fatalf("seq %d: applied=%d deduped=%v err=%v", seq, applied, deduped, err)
		}
	}
	run() // create structures, session, and scratch capacity
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Errorf("sequenced apply path allocates %.1f/op at steady state, want 0", avg)
	}
}
