package coupd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
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
	trace       *obs.Ring      // per-P span/batch/reduce event ring
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
	snapScratch sync.Pool      // *snapScratch, reduction reuse
}

// entScratch carries the resolved-entry slice between a sequenced
// batch's validate pass and its apply pass, pooled so the steady-state
// sequenced path allocates nothing.
type entScratch struct {
	ents []*entry
}

// Trace span ids, the ID field of the server's obs.Ring records.
const (
	traceBatch    uint16 = 1 // POST /v1/batch
	traceSnapshot uint16 = 2 // GET /v1/snapshot[/{name}]
)

// traceSlotsPerShard bounds the trace ring's memory: shards × slots ×
// 32 bytes, a few hundred KiB at worst.
const traceSlotsPerShard = 1024

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
// after a sequenced batch validates (or before an unsequenced batch's
// first record), so a panicking hook aborts the batch before any record
// lands. For fault injection — see internal/faultnet's PanicN/StallEvery
// — a panic surfaces as a recovered 500 (coupd_panics_total), never a
// dead process or a half-applied sequenced batch.
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
		trace:     obs.NewRing(traceSlotsPerShard),
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

// Trace exposes the server's span/batch/reduce event ring; Dump it (or
// obs.WriteTrace it) to capture recent request activity.
func (s *Server) Trace() *obs.Ring { return s.trace }

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
	t0 := time.Now()
	s.trace.Record(obs.EvSpanBegin, traceBatch, 0, 0)
	defer func() {
		s.trace.Record(obs.EvSpanEnd, traceBatch, uint64(time.Since(t0).Nanoseconds()), 0)
	}()
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

	if req.Client != "" {
		applied, deduped, err := s.applySequencedBatch(req)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrStaleSeq) {
				status = http.StatusConflict
			}
			// Validate-then-apply: a rejected sequenced batch applied
			// nothing, so Applied is always 0 here and the client may
			// retry the same seq after correcting the batch.
			writeJSON(w, status, ErrorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, BatchResponse{Applied: applied, Deduped: deduped})
		return
	}

	if s.applyHook != nil {
		s.applyHook()
	}
	applied, err := s.applyBatch(req)
	s.countBatch(applied)
	if err != nil {
		// Bare batches are not atomic: report how far we got and stop.
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Applied: applied})
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Applied: applied})
}

// retryAfterMsValue is RetryAfterMs pre-rendered for the 429 header.
const retryAfterMsValue = "2"

// applySequencedBatch runs one sequenced batch through its dedup
// session: duplicate seqs are answered from the session's ack window
// without touching the registry, new or retried seqs go through
// validate-then-apply — every record is checked (and its structure
// resolved) before any is applied, so a failed batch applies nothing —
// and the seq is acknowledged only after the last record lands.
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
	sc := s.entScratch.Get().(*entScratch)
	defer func() {
		sc.ents = sc.ents[:0]
		s.entScratch.Put(sc)
	}()
	sc.ents, err = s.validateBatch(req, sc.ents)
	if err != nil {
		return 0, false, err
	}
	if s.applyHook != nil {
		s.applyHook()
	}
	s.applyValidated(req, sc.ents)
	sess.ack(req.Seq, len(req.Updates))
	s.countBatch(len(req.Updates))
	return len(req.Updates), false, nil
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
			return ents, fmt.Errorf("record %d: %v (validate-then-apply: nothing applied; correct and resend seq %d)", i, err, req.Seq)
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

// applyBatch applies the decoded records in order, returning how many
// succeeded and the error that stopped it. This is the per-update inner
// loop of the write path — everything allocation-prone (JSON decode,
// response encode, pool bookkeeping) stays in handleBatch.
//
//coup:hotpath
func (s *Server) applyBatch(req *BatchRequest) (int, error) {
	for i := range req.Updates {
		if err := s.reg.Apply(&req.Updates[i]); err != nil {
			return i, fmt.Errorf("record %d: %v", i, err)
		}
	}
	return len(req.Updates), nil
}

// countBatch records one accepted batch in the telemetry structures:
// two counter adds, one histogram observe (obs uses the same floor-log2
// bucketing countBatch used to compute by hand), one trace record.
//
//coup:hotpath
func (s *Server) countBatch(applied int) {
	s.batches.Inc()
	s.updates.Add(int64(applied))
	s.batchLen.Observe(int64(applied))
	s.trace.Record(obs.EvBatchApply, traceBatch, uint64(applied), 0)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	span := time.Now()
	s.trace.Record(obs.EvSpanBegin, traceSnapshot, 0, 0)
	defer func() {
		s.trace.Record(obs.EvSpanEnd, traceSnapshot, uint64(time.Since(span).Nanoseconds()), 0)
	}()
	sc := s.snapScratch.Get().(*snapScratch)
	defer func() {
		// Truncate before Put: a pooled scratch that kept its length would
		// hand the next Get a view of this request's partial sums.
		sc.i64 = sc.i64[:0]
		sc.u64 = sc.u64[:0]
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
	writeJSON(w, http.StatusOK, &snap)
}

func (s *Server) handleBulkSnapshot(w http.ResponseWriter, r *http.Request) {
	span := time.Now()
	s.trace.Record(obs.EvSpanBegin, traceSnapshot, 0, 0)
	defer func() {
		s.trace.Record(obs.EvSpanEnd, traceSnapshot, uint64(time.Since(span).Nanoseconds()), 0)
	}()
	sc := s.snapScratch.Get().(*snapScratch)
	defer func() {
		sc.i64 = sc.i64[:0]
		sc.u64 = sc.u64[:0]
		s.snapScratch.Put(sc)
	}()
	if s.reduceHook != nil {
		s.reduceHook()
	}
	names := s.reg.Names()
	bulk := BulkSnapshot{Structures: make([]Snapshot, 0, len(names))}
	t0 := time.Now()
	for _, name := range names {
		var snap Snapshot
		// The snapshot borrows sc's buffers, which the next iteration
		// reuses; histogram bins must survive until the response is
		// serialized, so clone them.
		if err := s.reg.Snapshot(name, sc, &snap); err != nil {
			continue // deleted between Names and here: impossible today, harmless
		}
		if snap.Bins != nil {
			snap.Bins = append([]uint64(nil), snap.Bins...)
		}
		bulk.Structures = append(bulk.Structures, snap)
	}
	s.countReduce(time.Since(t0))
	writeJSON(w, http.StatusOK, &bulk)
}

// countReduce records one snapshot request's reduction latency into the
// log2 histogram — the full distribution, not just extremes — plus the
// trace ring.
//
//coup:hotpath
func (s *Server) countReduce(d time.Duration) {
	s.snapshots.Inc()
	s.reduceNs.Observe(d.Nanoseconds())
	s.trace.Record(obs.EvReduce, traceSnapshot, uint64(d.Nanoseconds()), 0)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode errors past the header write are undeliverable; the client
	// sees a truncated body and reports the transport error.
	_ = json.NewEncoder(w).Encode(body)
}
