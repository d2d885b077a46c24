package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ops"
)

// The trace ring is the capture half of ROADMAP's trace-format
// direction: a per-P array of fixed-size binary event records that a hot
// path can append to with one uncontended atomic add and four plain
// stores — the update-only discipline again, applied to event streams
// instead of counters. Readers reconstruct a globally ordered event list
// on demand; a torn or overwritten slot is detected and dropped, never
// misread.

// EventKind tags one trace record.
type EventKind uint8

const (
	// EvSpanBegin / EvSpanEnd bracket a logical operation (a request, a
	// snapshot). Arg1 carries a caller-chosen span tag.
	EvSpanBegin EventKind = 1
	EvSpanEnd   EventKind = 2
	// EvBatchApply marks one applied update batch; Arg1 is the number of
	// updates applied.
	EvBatchApply EventKind = 3
	// EvReduce marks one reduce-on-read; Arg1 is the reduce latency in
	// nanoseconds.
	EvReduce EventKind = 4
)

func (k EventKind) String() string {
	switch k {
	case EvSpanBegin:
		return "span_begin"
	case EvSpanEnd:
		return "span_end"
	case EvBatchApply:
		return "batch_apply"
	case EvReduce:
		return "reduce"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record layout inside a shard's buf: recWords uint64 words per slot.
// meta is written twice — zeroed before the payload stores, installed
// (nonzero) after them — so a reader that sees the same nonzero meta on
// both sides of its payload reads knows the slot was not being rewritten
// underneath it (a seqlock with the sequence number stored per record).
const (
	recWords = 4
	metaOff  = 0
	timeOff  = 1
	arg1Off  = 2
	arg2Off  = 3
)

// meta packs seq+1 (40 bits), kind (8 bits), and id (16 bits). seq+1
// keeps meta nonzero for every valid record, reserving 0 for "slot being
// written or never written".
func packMeta(seq uint64, kind EventKind, id uint16) uint64 {
	return (seq+1)<<24 | uint64(kind)<<16 | uint64(id)
}

func unpackMeta(m uint64) (seq uint64, kind EventKind, id uint16) {
	return m>>24 - 1, EventKind(m >> 16 & 0xff), uint16(m)
}

// ringShard is one P's private record buffer: a write cursor and the
// slot words. Exactly one cache line of header state per shard so
// neighbouring cursors never false-share.
type ringShard struct {
	pos atomic.Uint64
	buf []uint64
	_   [ops.LineBytes - 32]byte
}

// ringToken is the pool token biasing a goroutine to one shard,
// mirroring pkg/commute's unexported token idiom.
type ringToken struct{ idx uint32 }

var ringTokSeq atomic.Uint32

var ringTokenPool = sync.Pool{New: func() any {
	return &ringToken{idx: ringTokSeq.Add(1)}
}}

// Ring is a per-P trace ring: each shard holds the newest slotsPerShard
// records written through it, oldest overwritten first. Record never
// blocks, never allocates, and touches only the caller's shard.
type Ring struct {
	mask  uint32 // shard index mask
	smask uint64 // slot index mask within a shard
	slots uint64 // slots per shard (power of two)
	start time.Time
	shard []ringShard
}

// NewRing builds a trace ring with at least slotsPerShard records per
// shard (rounded up to a power of two), one shard per P.
func NewRing(slotsPerShard int) *Ring {
	if slotsPerShard < 1 {
		panic("obs: ring needs >= 1 slot per shard")
	}
	slots := uint64(1)
	for slots < uint64(slotsPerShard) {
		slots <<= 1
	}
	nshards := 1
	for nshards < runtime.GOMAXPROCS(0) {
		nshards <<= 1
	}
	r := &Ring{
		mask:  uint32(nshards - 1),
		smask: slots - 1,
		slots: slots,
		start: time.Now(),
		shard: make([]ringShard, nshards),
	}
	for i := range r.shard {
		r.shard[i].buf = make([]uint64, slots*recWords)
	}
	return r
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return len(r.shard) }

// SlotsPerShard returns the per-shard record capacity.
func (r *Ring) SlotsPerShard() int { return int(r.slots) }

// Record appends one event to the calling goroutine's shard: an
// uncontended cursor bump, then the seqlock store sequence. The
// timestamp is nanoseconds since the ring was built, so records from
// different shards order on one clock.
//
//coup:hotpath
func (r *Ring) Record(kind EventKind, id uint16, arg1, arg2 uint64) {
	t := ringTokenPool.Get().(*ringToken)
	s := &r.shard[t.idx&r.mask]
	seq := s.pos.Add(1) - 1
	base := (seq & r.smask) * recWords
	buf := s.buf
	now := uint64(time.Since(r.start).Nanoseconds())
	atomic.StoreUint64(&buf[base+metaOff], 0)
	atomic.StoreUint64(&buf[base+timeOff], now)
	atomic.StoreUint64(&buf[base+arg1Off], arg1)
	atomic.StoreUint64(&buf[base+arg2Off], arg2)
	atomic.StoreUint64(&buf[base+metaOff], packMeta(seq, kind, id))
	ringTokenPool.Put(t)
}

// Event is one decoded trace record.
type Event struct {
	TimeNs int64     // nanoseconds since the ring was built
	Seq    uint64    // per-shard sequence number
	Shard  int       // shard the record was written through
	Kind   EventKind // record type
	ID     uint16    // caller-chosen stream id (e.g. span family)
	Arg1   uint64
	Arg2   uint64
}

// Dump reduces the ring into a time-ordered event list. Records being
// rewritten during the read, or overwritten since their cursor position,
// are dropped; everything returned was read whole. Dump allocates — it
// is the read side, not the hot path.
func (r *Ring) Dump() []Event {
	var out []Event
	for si := range r.shard {
		s := &r.shard[si]
		n := s.pos.Load()
		lo := uint64(0)
		if n > r.slots {
			lo = n - r.slots
		}
		for seq := lo; seq < n; seq++ {
			base := (seq & r.smask) * recWords
			m1 := atomic.LoadUint64(&s.buf[base+metaOff])
			if m1 == 0 {
				continue
			}
			tm := atomic.LoadUint64(&s.buf[base+timeOff])
			a1 := atomic.LoadUint64(&s.buf[base+arg1Off])
			a2 := atomic.LoadUint64(&s.buf[base+arg2Off])
			m2 := atomic.LoadUint64(&s.buf[base+metaOff])
			if m1 != m2 {
				continue
			}
			mseq, kind, id := unpackMeta(m1)
			if mseq != seq&seqMask {
				continue
			}
			out = append(out, Event{
				TimeNs: int64(tm),
				Seq:    seq,
				Shard:  si,
				Kind:   kind,
				ID:     id,
				Arg1:   a1,
				Arg2:   a2,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.TimeNs != b.TimeNs {
			return a.TimeNs < b.TimeNs
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return out
}

// seqMask is the span of the meta sequence field: 40 bits.
const seqMask = 1<<40 - 1

// Binary trace format, seeding ROADMAP's trace-capture direction:
//
//	offset  size  field
//	0       8     magic "COUPTRC\x01" (final byte is the version)
//	8       8     record count, uint64 LE
//	16      40*n  records
//
// Each record is five uint64 LE words: time (ns since ring start), meta
// (seq+1 <<24 | kind<<16 | id, as in the ring), shard, arg1, arg2.
var traceMagic = [8]byte{'C', 'O', 'U', 'P', 'T', 'R', 'C', 0x01}

const traceRecBytes = 40

// maxTracePrealloc caps the events ReadTrace allocates ahead of reading
// them (~192 KB), so a header's count sizes nothing by itself; a longer
// trace grows the slice as its records arrive.
const maxTracePrealloc = 4096

// WriteTrace writes events in the binary trace format.
func WriteTrace(w io.Writer, events []Event) error {
	var hdr [16]byte
	copy(hdr[:8], traceMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(events)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var rec [traceRecBytes]byte
	for i := range events {
		e := &events[i]
		binary.LittleEndian.PutUint64(rec[0:], uint64(e.TimeNs))
		binary.LittleEndian.PutUint64(rec[8:], packMeta(e.Seq&seqMask, e.Kind, e.ID))
		binary.LittleEndian.PutUint64(rec[16:], uint64(e.Shard))
		binary.LittleEndian.PutUint64(rec[24:], e.Arg1)
		binary.LittleEndian.PutUint64(rec[32:], e.Arg2)
		if _, err := w.Write(rec[:]); err != nil {
			return err
		}
	}
	return nil
}

// DumpTo dumps the ring and writes the result in the binary trace
// format, returning the events written.
func (r *Ring) DumpTo(w io.Writer) ([]Event, error) {
	events := r.Dump()
	if err := WriteTrace(w, events); err != nil {
		return nil, err
	}
	return events, nil
}

// ReadTrace parses a binary trace stream written by WriteTrace. A stream
// with fewer records than its header counts is an error.
func ReadTrace(rd io.Reader) ([]Event, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return nil, fmt.Errorf("obs: trace header: %w", err)
	}
	if [8]byte(hdr[:8]) != traceMagic {
		return nil, fmt.Errorf("obs: bad trace magic %x", hdr[:8])
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	events := make([]Event, 0, min(n, maxTracePrealloc))
	var rec [traceRecBytes]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(rd, rec[:]); err != nil {
			return nil, fmt.Errorf("obs: trace record %d: %w", i, err)
		}
		seq, kind, id := unpackMeta(binary.LittleEndian.Uint64(rec[8:]))
		events = append(events, Event{
			TimeNs: int64(binary.LittleEndian.Uint64(rec[0:])),
			Seq:    seq,
			Shard:  int(binary.LittleEndian.Uint64(rec[16:])),
			Kind:   kind,
			ID:     id,
			Arg1:   binary.LittleEndian.Uint64(rec[24:]),
			Arg2:   binary.LittleEndian.Uint64(rec[32:]),
		})
	}
	return events, nil
}
