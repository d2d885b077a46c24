package coupd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/pkg/obs"
)

// MaxBatchBytes bounds a batch request body.
const MaxBatchBytes = 8 << 20

// RetryAfterMs is the millisecond backpressure hint a 429 carries in its
// Retry-After-Ms header. The standard Retry-After header only speaks
// whole seconds — three orders of magnitude coarser than the closed-loop
// recovery time of a batching client — so saturation responses carry
// both: the second-granular ceiling for generic clients and this hint
// for clients that understand it (coupd.Session does).
const RetryAfterMs = 2

// Server serves a Registry over HTTP. Build one with New, mount it
// anywhere an http.Handler goes (it routes /v1/... itself), and call
// Drain before process exit so in-flight batches land.
type Server struct {
	reg         *Registry
	maxInFlight int
	sem         chan struct{}

	// Exactly-once plane: per-client dedup sessions (see session.go).
	sessions *sessionTable
	sessMax  int
	sessTTL  time.Duration

	// Chaos hooks (WithApplyHook/WithReduceHook): called at the start of
	// batch application and snapshot reduction when set. They exist for
	// fault injection — internal/faultnet builds panic/stall hooks — and
	// fire before any record lands, so a hook-induced panic applies
	// nothing and the batch stays safe to retry.
	applyHook  func()
	reduceHook func()

	drainMu  sync.RWMutex // write-held only to flip draining
	draining bool
	inflight sync.WaitGroup

	mux   *http.ServeMux
	start time.Time

	// Self-telemetry, dogfooded through pkg/obs (itself pkg/commute
	// underneath): the server's hottest metadata words take the same
	// update-only fast path it serves; GET /metrics is a reduce-on-read
	// view of the registry.
	metrics     *obs.Registry
	batches     *obs.Counter   // accepted batches
	updates     *obs.Counter   // records applied
	rejected    *obs.Counter   // 429s
	snapshots   *obs.Counter   // snapshot requests served
	reduceNs    *obs.Histogram // per-request reduce latency, log2 buckets
	batchLen    *obs.Histogram // log2-bucketed accepted batch sizes
	depth       *obs.Counter   // in-flight batches right now
	panics      *obs.Counter   // handler panics recovered to 500s
	decoders    sync.Pool      // *batchDecoder, body read + decode reuse
	entScratch  sync.Pool      // *entScratch, validate-then-apply reuse
	snapScratch sync.Pool      // *snapScratch, reduction + response reuse
}

// entScratch carries the resolved-entry slice between a batch's
// validate pass and its apply pass, pooled so the steady-state write
// path allocates nothing.
type entScratch struct {
	ents []*entry
}

// Option configures New.
type Option func(*Server) error

// WithMaxInFlight bounds concurrently-processed batches (the
// backpressure knob). The default is 4*GOMAXPROCS.
func WithMaxInFlight(n int) Option {
	return func(s *Server) error {
		if n < 1 {
			return fmt.Errorf("coupd: max in-flight must be >= 1, got %d", n)
		}
		s.maxInFlight = n
		return nil
	}
}

// WithDedupSessions bounds the exactly-once session table: at most max
// client sessions, each evicted after ttl idle. Eviction trades memory
// for the dedup horizon. Once a client's session is evicted — idle past
// the TTL, or LRU-evicted under a burst of more than max distinct
// clients — each batch it sends with a seq above 1, retries included,
// gets ErrStaleSeq and applies nothing, so the client must continue
// under a new client id. A retry of seq 1 after eviction cannot be told
// apart from a new client's first batch, so it applies again. Keep the
// TTL far above any client's retry budget. Defaults: DefaultMaxSessions,
// DefaultSessionTTL.
func WithDedupSessions(max int, ttl time.Duration) Option {
	return func(s *Server) error {
		if max < 1 {
			return fmt.Errorf("coupd: dedup session cap must be >= 1, got %d", max)
		}
		if ttl <= 0 {
			return fmt.Errorf("coupd: dedup session TTL must be > 0, got %v", ttl)
		}
		s.sessMax, s.sessTTL = max, ttl
		return nil
	}
}

// WithApplyHook installs fn at the head of batch application: it runs
// after a batch validates and before its first record lands, so a
// panicking hook aborts the batch with nothing applied. For fault
// injection — see internal/faultnet's PanicN/StallEvery — a panic
// surfaces as a recovered 500 (coupd_panics_total), never a dead
// process or a half-applied batch.
func WithApplyHook(fn func()) Option {
	return func(s *Server) error {
		s.applyHook = fn
		return nil
	}
}

// WithReduceHook installs fn at the head of snapshot reduction, the
// read-plane counterpart of WithApplyHook.
func WithReduceHook(fn func()) Option {
	return func(s *Server) error {
		s.reduceHook = fn
		return nil
	}
}

// New builds a Server over a fresh registry.
func New(opts ...Option) (*Server, error) {
	m := obs.NewRegistry()
	s := &Server{
		reg:       NewRegistry(),
		start:     time.Now(),
		metrics:   m,
		batches:   m.Counter("coupd_batches_total", "Accepted update batches."),
		updates:   m.Counter("coupd_updates_total", "Update records applied."),
		rejected:  m.Counter("coupd_rejected_total", "Batches rejected with 429 (saturated)."),
		snapshots: m.Counter("coupd_snapshots_total", "Snapshot requests served."),
		reduceNs:  m.Histogram("coupd_reduce_ns", "Snapshot reduce-on-read latency in nanoseconds.", 32),
		batchLen:  m.Histogram("coupd_batch_size", "Applied records per accepted batch.", 16),
		depth:     m.UpDownCounter("coupd_in_flight", "Batches being processed right now."),
		panics:    m.Counter("coupd_panics_total", "Handler panics recovered to 500 responses."),
	}
	m.Gauge("coupd_structures", "Registered commutative structures.",
		func() int64 { return int64(s.reg.Len()) })
	m.Gauge("coupd_uptime_seconds", "Seconds since the server was built.",
		func() int64 { return int64(time.Since(s.start).Seconds()) })
	obs.RegisterRuntimeMetrics(m)
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.maxInFlight == 0 {
		s.maxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if s.sessMax == 0 {
		s.sessMax = DefaultMaxSessions
	}
	if s.sessTTL == 0 {
		s.sessTTL = DefaultSessionTTL
	}
	s.sessions = newSessionTable(s.sessMax, s.sessTTL, m)
	s.sem = make(chan struct{}, s.maxInFlight)
	s.decoders.New = func() any { return &batchDecoder{} }
	s.entScratch.New = func() any { return &entScratch{} }
	s.snapScratch.New = func() any { return &snapScratch{} }
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/snapshot/{name}", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/snapshot", s.handleBulkSnapshot)
	s.mux.Handle("GET /metrics", m.Handler())
	return s, nil
}

// Registry exposes the server's structure registry (for embedding the
// server in a larger process that also updates in-process).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the server's telemetry registry, the same families
// served at GET /metrics (for embedding processes that add their own).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// ServeHTTP makes Server an http.Handler. It recovers handler panics —
// a poisoned batch, a chaos hook — into a 500 ErrorResponse and a
// coupd_panics_total tick, so one bad request cannot kill the process;
// the in-flight semaphore and WaitGroup release on the unwind (their
// releases are deferred below the recovery point). Sequenced batches
// stay exactly-once through a panic: acks are recorded only after the
// last record lands, so an un-acked 500 is safe to retry.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
			panic(p) // net/http's own abort idiom: let the server suppress it
		}
		s.panics.Inc()
		writeJSON(w, http.StatusInternalServerError,
			ErrorResponse{Error: fmt.Sprintf("coupd: recovered handler panic: %v", p)})
	}()
	s.mux.ServeHTTP(w, r)
}

// Drain stops accepting batches (they get 503 + ErrDraining) and waits
// for every in-flight batch to land or ctx to expire. Snapshots and
// metrics keep serving, so an operator can read final state after the
// write plane is quiesced. Draining is permanent for this Server.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	// The flag flip above synchronizes with every in-flight Add: once the
	// write lock is held, no handler is between its draining check and
	// its WaitGroup.Add, so Wait cannot race a zero-to-one Add.
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("coupd: drain: %w (in-flight batches still running)", ctx.Err())
	}
}

// enterBatch gates one batch past the draining flag and the in-flight
// semaphore; it returns the error that should be served, or nil with a
// release func the handler must call when the batch lands.
func (s *Server) enterBatch() (release func(), err error) {
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		return nil, ErrDraining
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.drainMu.RUnlock()
		s.rejected.Inc()
		return nil, ErrSaturated
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	s.depth.Inc()
	return func() {
		s.depth.Dec()
		<-s.sem
		s.inflight.Done()
	}, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, gateErr := s.enterBatch()
	if gateErr != nil && errors.Is(gateErr, ErrSaturated) {
		// Whole seconds are not expressible backpressure for a closed
		// loop that recovers in milliseconds; alongside the standard
		// ceiling, Retry-After-Ms hints the real scale (coupd.Session
		// and the swbench driver honor it).
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Retry-After-Ms", retryAfterMsValue)
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: gateErr.Error()})
		return
	}
	if release != nil {
		defer release()
	}
	// gateErr != nil here means draining: fall through to decode anyway
	// (outside the semaphore — drain is terminal, so the unbounded-decode
	// window is one shutdown long and each body is MaxBatchBytes-capped)
	// so an already-acknowledged sequenced batch can still be answered
	// from its dedup session. That answer applies nothing, which is what
	// makes it safe during shutdown — and what lets a client whose ack
	// was lost in transit resolve its batch instead of losing it.

	dec := s.decoders.Get().(*batchDecoder)
	defer func() {
		dec.reset()
		s.decoders.Put(dec)
	}()
	body, err := dec.readBody(http.MaxBytesReader(w, r.Body, MaxBatchBytes), r.ContentLength)
	var req *BatchRequest
	if err == nil {
		req, err = dec.decodeBatch(body)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("coupd: %v: bad batch body: %v", ErrBadUpdate, err)})
		return
	}
	if gateErr != nil { // draining
		if req.Client != "" {
			if applied, ok := s.sessions.replayAck(req.Client, req.Seq); ok {
				writeJSON(w, http.StatusOK, BatchResponse{Applied: applied, Deduped: true})
				return
			}
		}
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: gateErr.Error()})
		return
	}

	resp := BatchResponse{Applied: len(req.Updates)}
	if req.Client != "" {
		resp.Applied, resp.Deduped, err = s.applySequencedBatch(req)
	} else {
		err = s.applyBatch(req)
	}
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrStaleSeq) {
			status = http.StatusConflict
		}
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// retryAfterMsValue is RetryAfterMs pre-rendered for the 429 header.
const retryAfterMsValue = "2"

// applySequencedBatch runs one sequenced batch through its dedup
// session: duplicate seqs are answered from the session's ack window
// without touching the registry, new or retried seqs go through
// applyBatch, and the seq is acknowledged only after the last record
// lands.
func (s *Server) applySequencedBatch(req *BatchRequest) (applied int, deduped bool, err error) {
	if req.Seq == 0 {
		return 0, false, fmt.Errorf("coupd: %w: sequenced batch (client %q) needs seq >= 1", ErrBadUpdate, req.Client)
	}
	if len(req.Client) > maxNameLen { // a session keeps its id
		return 0, false, fmt.Errorf("coupd: %w: client id of %d bytes (need at most %d)", ErrBadUpdate, len(req.Client), maxNameLen)
	}
	// Only seq 1 opens a session. A later seq with no live session
	// belongs to one that was evicted: its batch may already have
	// applied, so it gets 409 rather than a fresh session that would
	// apply it again.
	sess := s.sessions.get(req.Client, req.Seq == 1)
	if sess == nil {
		return 0, false, fmt.Errorf("coupd: %w: client %q seq %d has no live session (evicted, or never opened at seq 1); continue under a new client id",
			ErrStaleSeq, req.Client, req.Seq)
	}
	// The session lock spans check-validate-apply-ack: two racing POSTs
	// of one (client, seq) — a client retrying into its own still-running
	// first attempt — serialize here, and the loser sees the ack.
	sess.mu.Lock()
	defer sess.mu.Unlock()
	state, prior := sess.check(req.Seq)
	switch state {
	case seqStale:
		return 0, false, fmt.Errorf("coupd: %w: client %q seq %d is beyond the %d-batch window below seq %d",
			ErrStaleSeq, req.Client, req.Seq, sessionWindow, sess.maxSeq)
	case seqDup:
		s.sessions.dedupHits.Inc()
		s.sessions.replays.Inc()
		return prior, true, nil
	case seqRetry:
		s.sessions.replays.Inc()
	}
	if err := s.applyBatch(req); err != nil {
		return 0, false, err
	}
	sess.ack(req.Seq, len(req.Updates))
	return len(req.Updates), false, nil
}

// applyBatch is the write path of every batch, bare or sequenced:
// validate-then-apply. Every record is checked (and its structure
// resolved) before any is applied, so a rejected batch applies nothing
// and is not counted; then the apply hook runs, every record lands, and
// the batch is counted.
//
//coup:hotpath
func (s *Server) applyBatch(req *BatchRequest) error {
	sc := s.entScratch.Get().(*entScratch)
	defer func() {
		sc.ents = sc.ents[:0]
		s.entScratch.Put(sc)
	}()
	var err error
	if sc.ents, err = s.validateBatch(req, sc.ents); err != nil {
		return err
	}
	if s.applyHook != nil {
		s.applyHook()
	}
	s.applyValidated(req, sc.ents)
	s.countBatch(len(req.Updates))
	return nil
}

// validateBatch resolves and checks every record without applying any,
// appending the resolved entries to ents (a pooled scratch slice, so the
// steady-state pass allocates nothing). Resolution creates structures on
// first touch exactly like application would — creation is part of name
// resolution, not value mutation, so a batch that fails validation may
// leave new (zero-valued) structures behind but never a partial update.
//
//coup:hotpath
func (s *Server) validateBatch(req *BatchRequest, ents []*entry) ([]*entry, error) {
	for i := range req.Updates {
		ent, err := s.reg.validate(&req.Updates[i])
		if err != nil {
			return ents, fmt.Errorf("record %d: %v (nothing applied; correct and resend the whole batch)", i, err)
		}
		ents = append(ents, ent)
	}
	return ents, nil
}

// applyValidated lands every record of a batch validateBatch accepted.
// It cannot fail: validation ran every check against the same entries,
// entries never change kind, and the checks are deterministic — a
// failure here is a bug worth crashing the request over (the recovery
// middleware turns it into an un-acked 500).
//
//coup:hotpath
func (s *Server) applyValidated(req *BatchRequest, ents []*entry) {
	for i := range req.Updates {
		if err := ents[i].apply(&req.Updates[i], false); err != nil {
			panic(fmt.Sprintf("coupd: validated record %d failed apply: %v", i, err))
		}
	}
}

// countBatch records one accepted batch in the telemetry structures:
// two counter adds and one histogram observe.
//
//coup:hotpath
func (s *Server) countBatch(applied int) {
	s.batches.Inc()
	s.updates.Add(int64(applied))
	s.batchLen.Observe(int64(applied))
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	sc := s.snapScratch.Get().(*snapScratch)
	defer func() {
		sc.reset()
		s.snapScratch.Put(sc)
	}()
	if s.reduceHook != nil {
		s.reduceHook()
	}
	var snap Snapshot
	t0 := time.Now()
	err := s.reg.Snapshot(r.PathValue("name"), sc, &snap)
	s.countReduce(time.Since(t0))
	if err != nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
		return
	}
	sc.body = append(appendSnapshot(sc.body, &snap), '\n')
	writeBody(w, sc.body)
}

// handleBulkSnapshot encodes each structure into the response right
// after reducing it, so one scratch serves every reduction.
func (s *Server) handleBulkSnapshot(w http.ResponseWriter, r *http.Request) {
	sc := s.snapScratch.Get().(*snapScratch)
	defer func() {
		sc.reset()
		s.snapScratch.Put(sc)
	}()
	if s.reduceHook != nil {
		s.reduceHook()
	}
	var reduce time.Duration
	sc.body = append(sc.body, bulkOpen...)
	for _, name := range s.reg.Names() {
		var snap Snapshot
		t0 := time.Now()
		err := s.reg.Snapshot(name, sc, &snap)
		reduce += time.Since(t0)
		if err != nil {
			continue // deleted between Names and here: impossible today, harmless
		}
		if len(sc.body) > len(bulkOpen) {
			sc.body = append(sc.body, ',')
		}
		sc.body = appendSnapshot(sc.body, &snap)
	}
	s.countReduce(reduce)
	sc.body = append(sc.body, bulkClose+"\n"...)
	writeBody(w, sc.body)
}

// countReduce records one snapshot request's reduction latency into the
// log2 histogram — the full distribution, not just extremes.
//
//coup:hotpath
func (s *Server) countReduce(d time.Duration) {
	s.snapshots.Inc()
	s.reduceNs.Observe(d.Nanoseconds())
}

// writeBody sends a complete 200 JSON body in one Write, with its
// Content-Length.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	// Write errors past the header write are undeliverable; the client
	// sees a short body and reports the transport error.
	_, _ = w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode errors past the header write are undeliverable; the client
	// sees a truncated body and reports the transport error.
	_ = json.NewEncoder(w).Encode(body)
}
