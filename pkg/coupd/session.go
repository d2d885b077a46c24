package coupd

import (
	"sync"
	"time"

	"repro/pkg/obs"
)

// sessionWindow is the width of a session's sliding ack window: how many
// of a client's most recent seqs the server remembers as applied. A
// retry must arrive within sessionWindow batches of the client's newest
// seq — far beyond what the one-outstanding-batch-per-session clients
// (coupd.Session, the swbench HTTP driver) ever need.
const sessionWindow = 64

// Default dedup-session bounds; override with WithDedupSessions.
const (
	// DefaultMaxSessions bounds the session table. A session takes ~360
	// bytes plus its client id, which is at most 256 bytes, so the
	// default table tops out around 40 MB.
	DefaultMaxSessions = 65536
	// DefaultSessionTTL evicts sessions idle this long. The TTL trades
	// memory for the exactly-once horizon: a client that goes silent
	// longer than this loses its dedup state, so it must be far larger
	// than any client's retry budget.
	DefaultSessionTTL = 10 * time.Minute
)

// session is one client's dedup state: the highest acknowledged seq and
// a sliding window of ack bits below it. mu also serializes the client's
// batch applications, so two racing POSTs of the same seq cannot both
// miss the dedup check and double-apply.
type session struct {
	id         string
	prev, next *session // LRU list, most-recent at table head
	touched    int64    // unix nanos of last use, TTL eviction input

	mu     sync.Mutex
	maxSeq uint64 // highest acked seq (0 = none yet)
	acked  uint64 // bit i set => seq maxSeq-i acked (bit 0 = maxSeq)
	// applied[seq%sessionWindow] is the Applied count acked for seq, the
	// answer a duplicate POST of that seq gets.
	applied [sessionWindow]uint32
}

// seqState classifies an incoming seq against the session's window.
type seqState int

const (
	seqNew   seqState = iota // beyond maxSeq: apply and advance
	seqRetry                 // within the window, not acked: apply
	seqDup                   // within the window, acked: answer stored
	seqStale                 // below the window: unanswerable, 409
)

// check classifies seq and, for seqDup, returns the originally-acked
// Applied count. Callers hold s.mu.
//
//coup:hotpath
func (s *session) check(seq uint64) (seqState, int) {
	if seq > s.maxSeq {
		return seqNew, 0
	}
	delta := s.maxSeq - seq
	if delta >= sessionWindow {
		return seqStale, 0
	}
	if s.acked&(1<<delta) != 0 {
		return seqDup, int(s.applied[seq%sessionWindow])
	}
	return seqRetry, 0
}

// ack records seq as applied with the given Applied count. Callers hold
// s.mu and have already classified seq as seqNew or seqRetry.
//
//coup:hotpath
func (s *session) ack(seq uint64, applied int) {
	if seq > s.maxSeq {
		shift := seq - s.maxSeq
		if shift >= sessionWindow {
			s.acked = 0
		} else {
			s.acked <<= shift
		}
		s.acked |= 1
		s.maxSeq = seq
	} else {
		s.acked |= 1 << (s.maxSeq - seq)
	}
	s.applied[seq%sessionWindow] = uint32(applied)
}

// sessionTable maps client IDs to sessions, bounded by an LRU list and a
// TTL. The zero table is unusable; build with newSessionTable.
type sessionTable struct {
	mu         sync.Mutex
	byID       map[string]*session
	head, tail *session // LRU: head most recent, tail next to evict
	max        int
	ttl        time.Duration

	dedupHits *obs.Counter // duplicate batches answered from the table
	replays   *obs.Counter // sequenced batches re-presenting a seen seq
}

func newSessionTable(max int, ttl time.Duration, m *obs.Registry) *sessionTable {
	t := &sessionTable{
		byID:      make(map[string]*session, 64),
		max:       max,
		ttl:       ttl,
		dedupHits: m.Counter("coupd_dedup_hits_total", "Duplicate sequenced batches answered from the session table without re-applying."),
		replays:   m.Counter("coupd_replays_total", "Sequenced batches that re-presented an already-seen seq (acked or not)."),
	}
	m.Gauge("coupd_sessions", "Live dedup sessions in the bounded table.",
		func() int64 { return t.size() })
	return t
}

func (t *sessionTable) size() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.byID))
}

// unlink removes s from the LRU list. Callers hold t.mu.
func (t *sessionTable) unlink(s *session) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		t.head = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	} else {
		t.tail = s.prev
	}
	s.prev, s.next = nil, nil
}

// pushFront makes s the most-recently-used session. Callers hold t.mu.
func (t *sessionTable) pushFront(s *session) {
	s.next = t.head
	if t.head != nil {
		t.head.prev = s
	}
	t.head = s
	if t.tail == nil {
		t.tail = s
	}
}

// get returns the session for id, creating it when create is set. On
// every hit it refreshes the LRU position and the TTL clock; on create
// it evicts expired sessions and, if still over capacity, the LRU tail.
// A nil return (create false) means the id has no live session.
//
// Deliberately not //coup:hotpath: the create path allocates the session
// (once per client lifetime), like Registry.lookup's create path. The
// steady-state hit path is allocation-free and the alloc-pinned test in
// server_chaos_test.go holds it to that.
func (t *sessionTable) get(id string, create bool) *session {
	now := time.Now().UnixNano()
	t.mu.Lock()
	if s, ok := t.byID[id]; ok {
		// An expired session still present in the table is dead state: a
		// hit must not resurrect its ack window (the client that owned it
		// is long gone; a new client reusing the id starts fresh).
		if now-s.touched <= int64(t.ttl) {
			s.touched = now
			if t.head != s {
				t.unlink(s)
				t.pushFront(s)
			}
			t.mu.Unlock()
			return s
		}
		t.unlink(s)
		delete(t.byID, id)
	}
	if !create {
		t.mu.Unlock()
		return nil
	}
	// Evict expired tails first (cheapest accounting), then make room.
	for t.tail != nil && now-t.tail.touched > int64(t.ttl) {
		old := t.tail
		t.unlink(old)
		delete(t.byID, old.id)
	}
	for len(t.byID) >= t.max && t.tail != nil {
		old := t.tail
		t.unlink(old)
		delete(t.byID, old.id)
	}
	s := &session{id: id, touched: now}
	t.byID[id] = s
	t.pushFront(s)
	t.mu.Unlock()
	return s
}

// replayAck answers a sequenced batch without creating session state:
// if (client, seq) is recorded as applied, it returns the original
// Applied count. The draining server uses this so an applied-but-
// unacknowledged batch can still be acknowledged during shutdown —
// answering it applies nothing, so it is as safe as a snapshot read.
func (t *sessionTable) replayAck(client string, seq uint64) (int, bool) {
	s := t.get(client, false)
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	state, applied := s.check(seq)
	if state != seqDup {
		return 0, false
	}
	t.dedupHits.Inc()
	t.replays.Inc()
	return applied, true
}
