package coupd

// Wire types: the JSON bodies of the batch and snapshot endpoints. They
// are plain data so the swbench HTTP driver, the repository benchmark,
// and any other client can share them with the server.

// Update is one record of a batch: apply Op with Args to the structure
// Name of kind Kind, creating the structure on first touch. Args is a
// small positional list (see the per-kind op tables in registry.go);
// Bins sizes a histogram at creation time only and is ignored after.
type Update struct {
	Name string  `json:"name"`
	Kind string  `json:"kind"`
	Op   string  `json:"op"`
	Args []int64 `json:"args,omitempty"`
	Bins int     `json:"bins,omitempty"`
}

// BatchRequest is the POST /v1/batch body: many updates, one request.
//
// A bare batch (empty Client) keeps the original semantics: records
// apply in order and the batch is not atomic (see BatchResponse).
//
// Setting Client and Seq makes the batch *sequenced*, which upgrades
// delivery to exactly-once: the server keeps a per-client dedup session
// (last seq + sliding ack window), answers a re-POSTed acknowledged
// batch with its original Applied without re-applying, and applies the
// batch validate-then-apply — every record is checked before any is
// applied, so a rejected batch applies nothing and the same seq can be
// retried after correction. Seq starts at 1 and each client sends its
// batches in seq order (retries resend the same seq with the same
// records); a seq that has fallen out of the ack window is answered
// 409 + ErrStaleSeq. Only seq 1 opens a session: a later seq whose
// session the server has evicted (see WithDedupSessions) is answered
// 409 + ErrStaleSeq too, and the client continues under a new Client. A
// seq-1 retry after eviction opens a fresh session and applies again.
type BatchRequest struct {
	Updates []Update `json:"updates"`
	// Client names the dedup session, typically one per writer
	// connection/goroutine, in at most 256 bytes. Empty means
	// unsequenced (no dedup).
	Client string `json:"client,omitempty"`
	// Seq is the 1-based batch sequence number within the session.
	// Sequenced batches with Seq 0 are rejected as ErrBadUpdate.
	Seq uint64 `json:"seq,omitempty"`
}

// BatchResponse acknowledges a batch. Applied counts the records that
// landed; on success it equals len(Updates). Deduped reports that the
// server recognized a sequenced batch as already applied and answered
// from its dedup session without re-applying anything.
type BatchResponse struct {
	Applied int  `json:"applied"`
	Deduped bool `json:"deduped,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer. Applied carries the
// records applied before a mid-batch failure (0 for rejected batches).
type ErrorResponse struct {
	Error   string `json:"error"`
	Applied int    `json:"applied"`
}

// Snapshot is one structure's reduced state: the server folds every
// shard at request time (reduce-on-read), so the values observe every
// update acknowledged before the request. Which fields are meaningful
// depends on Kind:
//
//	counter:  Value
//	hist:     Bins (one element per bucket), Total (their sum)
//	minmax:   N, Min, Max (Min/Max only meaningful when N > 0)
//	refcount: Value, Escalated
type Snapshot struct {
	Name      string   `json:"name"`
	Kind      string   `json:"kind"`
	Value     int64    `json:"value,omitempty"`
	Escalated bool     `json:"escalated,omitempty"`
	Bins      []uint64 `json:"bins,omitempty"`
	Total     uint64   `json:"total,omitempty"`
	N         uint64   `json:"n,omitempty"`
	Min       int64    `json:"min,omitempty"`
	Max       int64    `json:"max,omitempty"`
}

// BulkSnapshot is the GET /v1/snapshot body: every structure, sorted by
// name.
type BulkSnapshot struct {
	Structures []Snapshot `json:"structures"`
}
