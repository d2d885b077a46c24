package coupd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"
)

// Client-side retry defaults; override with ClientOptions.
const (
	// DefaultRetryBudget caps how long one Send keeps retrying before it
	// gives up (tightened further by the caller's context deadline).
	DefaultRetryBudget = 10 * time.Second
	// DefaultBackoffBase and DefaultBackoffCap bound the full-jitter
	// exponential schedule: attempt n sleeps rand(0, min(cap, base<<n)).
	DefaultBackoffBase = time.Millisecond
	DefaultBackoffCap  = 64 * time.Millisecond
)

// RemoteError is a server rejection the client will not retry: the
// request was delivered and answered, and the answer says no. Status
// carries the HTTP code (400 bad batch, 409 stale seq, 503 draining)
// and Msg the server's ErrorResponse body.
type RemoteError struct {
	Status int
	Msg    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("coupd client: server rejected batch (%d): %s", e.Status, e.Msg)
}

// Client speaks the coupd wire protocol with exactly-once retry
// semantics. It is cheap and safe for concurrent use; per-writer state
// lives in the Sessions it mints. The zero Client is unusable; build
// with NewClient.
type Client struct {
	base    string
	hc      *http.Client
	budget  time.Duration
	backoff time.Duration // base of the exponential schedule
	cap     time.Duration // ceiling of the exponential schedule
	randN   func(int64) int64
}

// ClientOption configures NewClient.
type ClientOption func(*Client)

// WithHTTPClient substitutes the transport-owning *http.Client —
// the seam fault injection uses (internal/faultnet wraps the transport).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithRetryBudget bounds how long one Send retries before giving up
// (<= 0 means a single attempt, no retries).
func WithRetryBudget(d time.Duration) ClientOption {
	return func(c *Client) { c.budget = d }
}

// WithBackoff sets the full-jitter exponential schedule: attempt n
// sleeps rand(0, min(ceil, base<<n)), floored by any Retry-After-Ms
// hint the server sent.
func WithBackoff(base, ceil time.Duration) ClientOption {
	return func(c *Client) { c.backoff, c.cap = base, ceil }
}

// WithJitterSource substitutes the uniform-random source behind the
// backoff jitter (fn(n) must return a value in [0, n)). Deterministic
// tests pin it; everyone else keeps the seeded-by-runtime default.
func WithJitterSource(fn func(n int64) int64) ClientOption {
	return func(c *Client) { c.randN = fn }
}

// NewClient builds a Client for the coupd server at baseURL (scheme and
// host, no path — "http://127.0.0.1:8080").
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{
		base:    baseURL,
		hc:      http.DefaultClient,
		budget:  DefaultRetryBudget,
		backoff: DefaultBackoffBase,
		cap:     DefaultBackoffCap,
		randN:   rand.Int64N,
	}
	for _, opt := range opts {
		if opt != nil {
			opt(c)
		}
	}
	return c
}

// Session mints the dedup session named id: a sequence of batches the
// server deduplicates by (id, seq). IDs must be unique per live writer —
// two writers sharing one id would interleave seqs and eat each other's
// batches as duplicates. A Session is not safe for concurrent use; give
// each writer goroutine its own.
func (c *Client) Session(id string) *Session {
	return &Session{c: c, id: id}
}

// Session is one writer's exactly-once stream of batches.
type Session struct {
	c   *Client
	id  string
	seq uint64 // last successfully acknowledged seq

	scratch []byte // encode buffer, reused across Sends
}

// SendResult reports one acknowledged batch.
type SendResult struct {
	Applied  int    // records applied (echoed from the server's ack)
	Seq      uint64 // the seq this batch landed under
	Deduped  bool   // the ack came from the server's dedup session
	Attempts int    // POSTs it took (1 = no faults)
}

// Send delivers one batch exactly once: it assigns the session's next
// seq, POSTs, and retries transport errors, truncated responses, 429s,
// and 5xx answers with capped full-jitter exponential backoff until the
// server acknowledges, the retry budget or ctx expires, or the server
// terminally rejects the batch (*RemoteError: 400 invalid, 409 stale,
// 503 draining — all of which applied nothing, by the server's
// validate-then-apply contract).
//
// On success the session's seq advances. On failure it does not: the
// next Send reuses the same seq, so a corrected batch replaces the
// rejected one and the server's dedup window stays aligned.
func (s *Session) Send(ctx context.Context, updates []Update) (SendResult, error) {
	seq := s.seq + 1
	// Encode into the session's scratch, then copy into a body sized to
	// fit: the transport may still read a body after Do returns, so a
	// body is never reused by a later Send.
	s.scratch = appendBatch(s.scratch[:0], &BatchRequest{Updates: updates, Client: s.id, Seq: seq})
	body := make([]byte, len(s.scratch))
	copy(body, s.scratch)
	if s.c.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.c.budget)
		defer cancel()
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := s.c.sleep(ctx, attempt-1, lastErr); err != nil {
				return SendResult{}, fmt.Errorf("coupd client: session %q seq %d: gave up after %d attempts (%w); last error: %v",
					s.id, seq, attempt, err, lastErr)
			}
		}
		res, err := s.c.post(ctx, body)
		if err == nil {
			s.seq = seq
			res.Seq = seq
			res.Attempts = attempt + 1
			return res, nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			// Terminal: the server answered and applied nothing (400
			// invalid, 409 stale, 503 draining — validate-then-apply
			// guarantees the "applied nothing" half). Not retried.
			return SendResult{}, fmt.Errorf("coupd client: session %q seq %d: %w", s.id, seq, err)
		}
		lastErr = err
		if ctx.Err() != nil {
			return SendResult{}, fmt.Errorf("coupd client: session %q seq %d: gave up after %d attempts (%w); last error: %v",
				s.id, seq, attempt+1, ctx.Err(), lastErr)
		}
	}
}

// retryHintError wraps a retryable rejection that carried a server
// backpressure hint (429 Retry-After-Ms / Retry-After); the hint floors
// the next backoff sleep.
type retryHintError struct {
	err   error
	floor time.Duration
}

func (e *retryHintError) Error() string { return e.err.Error() }
func (e *retryHintError) Unwrap() error { return e.err }

// sleep blocks for the full-jitter backoff of the given retry (0-based),
// floored by any server hint attached to lastErr, or returns early with
// ctx's error.
func (c *Client) sleep(ctx context.Context, retry int, lastErr error) error {
	d := c.backoff << min(retry, 30)
	if d <= 0 || d > c.cap {
		d = c.cap
	}
	sleep := time.Duration(c.randN(int64(d) + 1))
	if hint, ok := lastErr.(*retryHintError); ok && sleep < hint.floor {
		sleep = hint.floor
	}
	t := time.NewTimer(sleep)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// post runs one POST /v1/batch attempt and classifies the outcome:
// (result, nil) on an acknowledged batch, a *RemoteError for terminal
// rejections (including an unbuildable request — deterministic, never
// worth retrying), any other error (transport failure, truncated or
// garbled body, 429, 5xx) for retryable ones.
func (c *Client) post(ctx context.Context, body []byte) (SendResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return SendResult{}, &RemoteError{Status: 0, Msg: fmt.Sprintf("build request: %v", err)}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return SendResult{}, fmt.Errorf("transport: %w", err)
	}
	defer resp.Body.Close()
	// Read fully before classifying: a 200 status line with a truncated
	// body is NOT an ack — the batch may or may not have applied, which
	// is exactly what the dedup session exists to disambiguate on retry.
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBatchBytes))
	if err != nil {
		return SendResult{}, fmt.Errorf("read response (status %d): %w", resp.StatusCode, err)
	}

	switch {
	case resp.StatusCode == http.StatusOK:
		var br BatchResponse
		if err := json.Unmarshal(data, &br); err != nil {
			return SendResult{}, fmt.Errorf("garbled 200 body (%d bytes): %w", len(data), err)
		}
		return SendResult{Applied: br.Applied, Deduped: br.Deduped}, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		return SendResult{}, &retryHintError{
			err:   fmt.Errorf("saturated (429): %s", errorBody(data)),
			floor: retryAfterFloor(resp.Header),
		}
	case resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable:
		return SendResult{}, fmt.Errorf("server error (%d): %s", resp.StatusCode, errorBody(data))
	default:
		// 400, 409, 503 and anything else that answered definitively.
		return SendResult{}, &RemoteError{Status: resp.StatusCode, Msg: errorBody(data)}
	}
}

// errorBody extracts the server's error string from an ErrorResponse
// body, falling back to the raw bytes.
func errorBody(data []byte) string {
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err == nil && er.Error != "" {
		return er.Error
	}
	return string(bytes.TrimSpace(data))
}

// retryAfterFloor reads the server's backpressure hint: Retry-After-Ms
// (milliseconds, coupd's extension) wins over Retry-After (whole
// seconds, standard); absent both, no floor.
func retryAfterFloor(h http.Header) time.Duration {
	if ms := h.Get("Retry-After-Ms"); ms != "" {
		if n, err := strconv.Atoi(ms); err == nil && n >= 0 {
			return time.Duration(n) * time.Millisecond
		}
	}
	if sec := h.Get("Retry-After"); sec != "" {
		if n, err := strconv.Atoi(sec); err == nil && n >= 0 {
			return time.Duration(n) * time.Second
		}
	}
	return 0
}
