// Package coupd is the commutative-aggregation service: pkg/commute's
// sharded structures — counters, histograms, min/max trackers, reference
// counts — served over HTTP/JSON as named, durable-for-the-process
// aggregation cells, so the paper's update/read asymmetry survives a
// network boundary. The cmd/coupd binary wraps this package; commutebench
// -addr (or -self) is its closed-loop load generator.
//
// # The paper's states, one layer up
//
// The COUP protocol (Zhang, Harrison & Sanchez, MICRO 2015) lets cores
// hold a line in U state: private, update-only, no read permission, with
// a reduction folding the copies when someone finally reads. Every layer
// of this server replays that shape at a coarser grain:
//
//	coherence protocol (paper)       pkg/commute (process)   pkg/coupd (network)
//	-------------------------------  ----------------------  -------------------------
//	U state: private update-only     per-P padded shard      client-side batch buffer:
//	  copy of a line                                           updates held locally,
//	                                                           invisible until flushed
//	commutative-update instruction   Add/Inc/Observe         one Update record in a
//	                                                           POST /v1/batch body
//	reduction unit folding U copies  Snapshot folds shards   GET /v1/snapshot: the
//	  on a GetS                                                server folds shards into
//	                                                           the response (S state)
//	bounded U-buffer capacity        shard count             bounded in-flight batch
//	  (Sec 3.2 structures)                                     semaphore; 429 is the
//	                                                           capacity eviction
//
// A batch is the network image of an update stream: records carry an
// operation and its arguments, never a read, so the server fans them into
// the sharded cells without ever serializing on the aggregate value.
// Reads (snapshots) are rare and pay the whole reduction, exactly the
// asymmetry Sec 3 argues update-heavy sharing wants. The batched-delta
// framing also matches Shapiro & Preguiça's op-based commutative
// replicated data types (arXiv:0710.1784): because the ops commute,
// per-connection batch order is irrelevant and no cross-client
// coordination is needed.
//
// # Endpoints
//
//	POST /v1/batch             apply a BatchRequest of Update records
//	GET  /v1/snapshot/{name}   reduce one structure into a Snapshot
//	GET  /v1/snapshot          reduce every structure (BulkSnapshot)
//	GET  /metrics              service self-telemetry, Prometheus text (pkg/obs)
//
// Structures are created on first update (create-on-first-update, like a
// metrics library's GetOrRegister); a later update naming the same
// structure with a different kind is rejected with ErrKindMismatch.
// Every batch, sequenced or not, is validate-then-apply: every record is
// checked (and its structure created) in a dry pass first, and only a
// batch whose every record passes is applied and counted. A bad record
// draws a 400 naming it, and nothing applies, so the corrected batch is
// resent whole. The typed sentinels in errors.go name every failure
// class.
//
// # The batch codec
//
// Batch bodies are plain JSON, the shape of BatchRequest. Session.Send
// writes them with an append-style encoder (codec.go) whose bytes equal
// json.Marshal's. The server reads a body in that exact layout —
// {"updates":…} with optional "client" and "seq" after it, records as
// {"name":…,"kind":…,"op":…} with optional "args" and "bins" in that
// order, no whitespace, strings of printable ASCII without escapes,
// integers of at most 18 digits, nothing after the closing brace — in a
// single pass, and a warm read of one allocates nothing: records, their
// args and interned names come from a pooled per-request decoder. Every
// other body (curl's whitespace, other key orders or cases, escapes, long
// numbers, trailing bytes) goes to encoding/json's Decoder, so acceptance
// and values are encoding/json's by construction; FuzzDecodeBatch holds
// the one-pass reader to it. The one deliberate difference from a
// streaming Decoder: the body is read whole, so a body over MaxBatchBytes
// is rejected even when a complete JSON value ends before the cap.
// Responses, snapshots and error bodies stay on encoding/json.
//
// # Exactly-once replay
//
// Commutative is not idempotent: a counter increment replayed by a
// well-meaning retry double-counts. The wire format therefore carries an
// optional exactly-once plane — two BatchRequest fields:
//
//	client   string   stable writer identity opening a dedup session,
//	                  at most 256 bytes
//	seq      uint64   1-based, strictly in-order per client; a retry
//	                  resends the SAME seq
//
// A batch carrying a client id is sequenced. The server keeps a bounded
// session table (WithDedupSessions: LRU-evicted beyond a max, TTL-evicted
// when idle) holding, per client, the highest seq applied, a 64-deep
// sliding ack window, and the Applied answer for each windowed seq. A
// re-POSTed seq inside the window is answered from the table — original
// Applied count, Deduped=true, nothing re-applied; a seq below the window
// gets 409 ErrStaleSeq. Only seq 1 opens a session: a later seq whose
// session was evicted also gets 409 ErrStaleSeq, since the server can no
// longer tell whether it applied, and the client continues under a new
// id. Eviction lets one replay through: a seq-1 retry after it looks like
// a new client's first batch and applies again. A 400 rejection applies
// nothing, so the client may correct the batch and resend it under the
// same seq. The Client type implements the other end — per-session
// monotonic seqs, full-jitter retry on transport faults, 5xx and
// truncated acks — and internal/faultnet is the seeded chaos transport
// the contract is proven against.
//
// # Backpressure and shutdown
//
// At most MaxInFlight batches are processed concurrently (including
// request-body decode); beyond that the server answers 429 with both a
// Retry-After header (whole seconds, for generic HTTP clients) and a
// finer-grained Retry-After-Ms header (milliseconds, RetryAfterMs) that
// this package's Client honors as a backoff floor — saturation is pushed
// back to clients, who hold their batches in their own U-state buffers
// and retry. Drain flips the server into a draining state (new batches
// get 503), waits for in-flight batches to land, and leaves snapshots
// serving, so a shutdown loses no acknowledged update. Draining still
// answers already-acked sequenced replays from the session table, so a
// retry whose original landed just before the drain reconciles instead
// of erroring.
//
// # Observability
//
// The server's own telemetry — batch and update counters, reduce-latency
// and batch-size histograms, in-flight depth, runtime gauges — lives in
// a pkg/obs registry (pkg/commute underneath), so the service's hottest
// metadata words enjoy the same commutative treatment it sells: handlers
// write update-only, and GET /metrics is a reduce-on-read view of that
// state. See the pkg/obs package docs for how these map onto the paper's
// U-state/S-state vocabulary.
package coupd
