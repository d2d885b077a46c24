package coupd

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strconv"
)

// The batch codec. Session.Send writes POST /v1/batch bodies with
// appendBatch, an append-style encoder whose bytes equal json.Marshal's.
// The server reads a body in exactly that layout in one pass
// (canonicalBody: plain ASCII strings, integers of at most 18 digits, no
// whitespace, nothing after the closing '}'), and decodes every other
// body with encoding/json's Decoder, the decoder the handler ran before
// this codec. So the one-pass reader changes speed only, never acceptance
// or values: FuzzDecodeBatch holds it to encoding/json, and
// TestCanonicalRecord and FuzzAppendBatch hold the encoder to it.

// Pooled-buffer caps: a decoder whose buffers grew past these for one
// huge batch drops them rather than pinning them in the pool.
const (
	maxPooledBody = 1 << 20
	maxPooledRecs = maxPooledBody / 80 // ~sizeof(Update)
	maxPooledArgs = maxPooledBody / 8
)

// noUpdates is the value of `[]`, which encoding/json decodes to a fresh
// zero-capacity slice. Zero capacity makes sharing it safe.
var noUpdates = []Update{}

// batchDecoder is one request's decode state, pooled by the Server.
// Everything a canonical body's BatchRequest points at — records, their
// Args, interned strings — lives here, so a warm decode of one allocates
// nothing.
type batchDecoder struct {
	req   BatchRequest
	body  []byte   // the request body, read whole
	recs  []Update // backs req.Updates
	args  []int64  // arena every record's Args is carved from
	names internTable
}

// reset empties the decoder for reuse, dropping buffers a huge batch
// grew past the pool caps.
func (d *batchDecoder) reset() {
	d.req = BatchRequest{}
	if cap(d.body) > maxPooledBody {
		d.body = nil
	}
	if cap(d.recs) > maxPooledRecs {
		d.recs = nil
	}
	if cap(d.args) > maxPooledArgs {
		d.args = nil
	}
	d.body, d.recs, d.args = d.body[:0], d.recs[:0], d.args[:0]
}

// readBody reads r (capped by the caller) whole into the pooled body
// buffer; size is the request's Content-Length, a sizing hint only, and
// trusted no further than a poolable buffer so a claimed length cannot
// allocate ahead of the bytes that arrive.
func (d *batchDecoder) readBody(r io.Reader, size int64) ([]byte, error) {
	d.body = d.body[:0]
	if size > 0 && size <= maxPooledBody {
		d.body = slices.Grow(d.body, int(size)+1) // +1: room to read the EOF
	}
	for {
		if len(d.body) == cap(d.body) {
			d.body = append(d.body, 0)[:len(d.body)]
		}
		n, err := r.Read(d.body[len(d.body):cap(d.body)])
		d.body = d.body[:len(d.body)+n]
		if err == io.EOF {
			return d.body, nil
		}
		if err != nil {
			return d.body, err
		}
	}
}

// decodeBatch decodes one BatchRequest from data: a canonical body in one
// pass, any other with encoding/json. The result points into the decoder
// and is valid until its next reset.
func (d *batchDecoder) decodeBatch(data []byte) (*BatchRequest, error) {
	d.req = BatchRequest{}
	d.recs, d.args = d.recs[:0], d.args[:0]
	if d.canonicalBody(data) {
		return &d.req, nil
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&d.req); err != nil {
		return nil, err
	}
	return &d.req, nil
}

// The canonical layout, as appendBatch and json.Marshal both write a
// BatchRequest: bodyUpdates, then null or '[' records ']', then bodyClient
// and a string when Client is non-empty, then bodySeq and an integer when
// Seq is non-zero, then '}'. A record is recName, a string, recKind, a
// string, recOp, a string, then recArgs with its integers and ']' when
// Args is non-empty, then recBins and an integer when Bins is non-zero,
// then '}'.
const (
	bodyUpdates = `{"updates":`
	bodyClient  = `,"client":`
	bodySeq     = `,"seq":`
	recName     = `{"name":`
	recKind     = `,"kind":`
	recOp       = `,"op":`
	recArgs     = `,"args":[`
	recBins     = `,"bins":`
)

// canonicalBody decodes data into d.req in one pass when it is a canonical
// body, and reports whether it was. Such a body has no repeated, unknown
// or case-folded key, no whitespace, no bytes after its value and no token
// that needs unescaping, so it decodes as encoding/json would decode it.
// Otherwise d.req is left as it was.
//
//coup:hotpath
func (d *batchDecoder) canonicalBody(data []byte) bool {
	if !hasFrag(data, 0, bodyUpdates) {
		return false
	}
	var req BatchRequest
	p := len(bodyUpdates)
	switch {
	case hasFrag(data, p, "null"):
		p += len("null")
	case hasFrag(data, p, "[]"):
		req.Updates, p = noUpdates, p+len("[]")
	case hasFrag(data, p, "["):
		for {
			d.recs = append(d.recs, Update{})
			end := d.canonicalRecord(&d.recs[len(d.recs)-1], data, p+1) // past '[' or ','
			if end < 0 || end == len(data) {
				return false
			}
			if p = end; data[p] == ']' {
				break
			}
			if data[p] != ',' {
				return false
			}
		}
		req.Updates, p = d.recs, p+1
	default:
		return false
	}
	if client, end := plainField(data, p, bodyClient); end >= 0 {
		req.Client, p = d.names.intern(client), end
	}
	if hasFrag(data, p, bodySeq) {
		p += len(bodySeq)
		seq, end := plainInt(data, p)
		if end < 0 || data[p] == '-' {
			return false
		}
		req.Seq, p = uint64(seq), end
	}
	if p != len(data)-1 || data[p] != '}' {
		return false
	}
	d.req = req
	return true
}

// canonicalRecord decodes the record at p into u, which must be zero,
// when it is in the canonical layout with plain strings and plain
// integers, and returns the position after it, or -1. Its Args are carved
// from the decoder's arena with a full slice expression, so no two
// records share capacity.
//
//coup:hotpath
func (d *batchDecoder) canonicalRecord(u *Update, data []byte, p int) int {
	name, p := plainField(data, p, recName)
	kind, p := plainField(data, p, recKind)
	op, p := plainField(data, p, recOp)
	if p < 0 {
		return -1
	}
	start := len(d.args)
	if hasFrag(data, p, recArgs) {
		for p += len(recArgs); ; {
			v, end := plainInt(data, p)
			if end < 0 || end == len(data) {
				return -1
			}
			d.args, p = append(d.args, v), end+1
			if data[end] == ']' {
				break
			}
			if data[end] != ',' {
				return -1
			}
		}
	}
	var bins int64
	if hasFrag(data, p, recBins) {
		if bins, p = plainInt(data, p+len(recBins)); p < 0 || int64(int(bins)) != bins {
			return -1
		}
	}
	if p == len(data) || data[p] != '}' {
		return -1
	}
	u.Name, u.Kind, u.Op, u.Bins = d.names.intern(name), d.wordString(kind), d.wordString(op), int(bins)
	if len(d.args) > start {
		u.Args = d.args[start:len(d.args):len(d.args)]
	}
	return p + 1
}

// plainField scans the key fragment frag and then a plain string at pos,
// returning the string's value and the position after it, or -1.
func plainField(data []byte, pos int, frag string) ([]byte, int) {
	if !hasFrag(data, pos, frag) {
		return nil, -1
	}
	start := pos + len(frag)
	end := plainString(data, start)
	if end < 0 {
		return nil, -1
	}
	return data[start+1 : end-1], end
}

// hasFrag reports whether data holds frag at pos, which may be -1.
func hasFrag(data []byte, pos int, frag string) bool {
	return pos >= 0 && len(data)-pos >= len(frag) && string(data[pos:pos+len(frag)]) == frag
}

// plainString scans the string token at pos when every byte between its
// quotes is plain — 0x20–0x7f other than '"' and '\\' — so those bytes
// are its value, and returns the position after it, or -1.
func plainString(data []byte, pos int) int {
	if pos >= len(data) || data[pos] != '"' {
		return -1
	}
	for pos++; pos < len(data); pos++ {
		switch c := data[pos]; {
		case c == '"':
			return pos + 1
		case c < 0x20 || c >= 0x80 || c == '\\':
			return -1
		}
	}
	return -1
}

// plainInt scans the integer at pos when it is written
// -?(0|[1-9][0-9]{0,17}) — few enough digits to fit an int64 unchecked —
// and not followed by a digit, '.', 'e' or 'E', and returns it with the
// position after it, or end -1.
func plainInt(data []byte, pos int) (v int64, end int) {
	neg := pos < len(data) && data[pos] == '-'
	if neg {
		pos++
	}
	start := pos
	for pos < len(data) && pos-start < 18 && '0' <= data[pos] && data[pos] <= '9' {
		v = v*10 + int64(data[pos]-'0')
		pos++
	}
	if pos == start || data[start] == '0' && pos > start+1 {
		return 0, -1 // no digits, or a leading zero
	}
	if pos < len(data) {
		switch c := data[pos]; {
		case '0' <= c && c <= '9', c == '.', c == 'e', c == 'E':
			return 0, -1
		}
	}
	if neg {
		v = -v
	}
	return v, pos
}

// wordString returns the constant for a served kind or op, so the
// common records allocate nothing for them.
func (d *batchDecoder) wordString(b []byte) string {
	if w := servedWord(b); w != "" {
		return w
	}
	return d.names.intern(b)
}

// servedWord returns the constant for a served kind or op, or "" when b
// names none.
func servedWord(b []byte) string {
	switch string(b) {
	case "counter":
		return "counter"
	case "hist":
		return "hist"
	case "minmax":
		return "minmax"
	case "refcount":
		return "refcount"
	case "inc":
		return "inc"
	case "dec":
		return "dec"
	case "add":
		return "add"
	case "observe":
		return "observe"
	case "escalate":
		return "escalate"
	}
	return ""
}

// internTable dedups the strings a decoder hands out (structure names,
// client ids): a hit returns the stored string without allocating, a
// miss allocates once and stores it. Its size is fixed — a bounded,
// lock-free cache owned by one pooled decoder at a time — and strings
// longer than maxNameLen are never stored.
type internTable struct {
	slots [internSlots]string
}

const (
	internSlots = 256 // power of two
	internProbe = 4   // slots searched per lookup
)

func (t *internTable) intern(b []byte) string {
	if len(b) == 0 || len(b) > maxNameLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	for i := uint32(0); i < internProbe; i++ {
		s := &t.slots[(h+i)%internSlots]
		if *s == string(b) {
			return *s
		}
		if *s == "" {
			*s = string(b)
			return *s
		}
	}
	s := string(b)
	t.slots[(h+uint32(b[0])%internProbe)%internSlots] = s // full window: evict one
	return s
}

// appendBatch appends the JSON encoding of req to dst. The bytes are
// those json.Marshal(req) produces (FuzzAppendBatch holds it to that):
// strings outside printable ASCII or holding characters json.Marshal
// escapes go through json.Marshal itself.
func appendBatch(dst []byte, req *BatchRequest) []byte {
	dst = append(dst, bodyUpdates...)
	if req.Updates == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range req.Updates {
			u := &req.Updates[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, recName...)
			dst = appendString(dst, u.Name)
			dst = append(dst, recKind...)
			dst = appendString(dst, u.Kind)
			dst = append(dst, recOp...)
			dst = appendString(dst, u.Op)
			if len(u.Args) > 0 {
				dst = append(dst, recArgs...)
				for j, a := range u.Args {
					if j > 0 {
						dst = append(dst, ',')
					}
					dst = strconv.AppendInt(dst, a, 10)
				}
				dst = append(dst, ']')
			}
			if u.Bins != 0 {
				dst = append(dst, recBins...)
				dst = strconv.AppendInt(dst, int64(u.Bins), 10)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if req.Client != "" {
		dst = append(dst, bodyClient...)
		dst = appendString(dst, req.Client)
	}
	if req.Seq != 0 {
		dst = append(dst, bodySeq...)
		dst = strconv.AppendUint(dst, req.Seq, 10)
	}
	return append(dst, '}')
}

// appendString appends s as a JSON string the way json.Marshal writes
// it.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			b, _ := json.Marshal(s) // cannot fail for a string
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// The snapshot codec. The server writes GET /v1/snapshot bodies with
// appendSnapshot, whose bytes equal json.Marshal's (FuzzAppendSnapshot).
// (*Snapshot).UnmarshalJSON reads a snapshot in exactly that layout in
// one pass (decodeCanonical) and hands every other input to
// encoding/json, so acceptance and values stay encoding/json's
// (FuzzDecodeSnapshot).
//
// The layout, as appendSnapshot and json.Marshal both write a Snapshot:
// snapName and a string, snapKind and a string, then in field order the
// fields that are not zero — snapValue and an integer, snapEscalated,
// snapBins with its integers and ']', snapTotal, snapN, snapMin and
// snapMax each with an integer — then '}'. A bulk body is bulkOpen, the
// snapshots separated by ',', then bulkClose.
const (
	snapName      = `{"name":`
	snapKind      = `,"kind":`
	snapValue     = `,"value":`
	snapEscalated = `,"escalated":true`
	snapBins      = `,"bins":[`
	snapTotal     = `,"total":`
	snapN         = `,"n":`
	snapMin       = `,"min":`
	snapMax       = `,"max":`
	bulkOpen      = `{"structures":[`
	bulkClose     = `]}`
)

// appendSnapshot appends the JSON encoding of s to dst: the bytes
// json.Marshal(s) produces.
func appendSnapshot(dst []byte, s *Snapshot) []byte {
	dst = appendString(append(dst, snapName...), s.Name)
	dst = appendString(append(dst, snapKind...), s.Kind)
	if s.Value != 0 {
		dst = strconv.AppendInt(append(dst, snapValue...), s.Value, 10)
	}
	if s.Escalated {
		dst = append(dst, snapEscalated...)
	}
	if len(s.Bins) > 0 {
		dst = append(dst, snapBins...)
		for i, v := range s.Bins {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	if s.Total != 0 {
		dst = strconv.AppendUint(append(dst, snapTotal...), s.Total, 10)
	}
	if s.N != 0 {
		dst = strconv.AppendUint(append(dst, snapN...), s.N, 10)
	}
	if s.Min != 0 {
		dst = strconv.AppendInt(append(dst, snapMin...), s.Min, 10)
	}
	if s.Max != 0 {
		dst = strconv.AppendInt(append(dst, snapMax...), s.Max, 10)
	}
	return append(dst, '}')
}

// decodeCanonical decodes data into s when it is a snapshot in the
// layout appendSnapshot writes, with plain strings and plain integers,
// and reports whether it was. Such a snapshot has no repeated, unknown or
// case-folded key, no whitespace and no bytes after its '}', so it
// decodes as encoding/json would decode it: the fields it holds are set,
// the others keep their values, and Bins reuses its capacity. The whole
// layout is checked before s changes, so on false s is as it was.
//
// Not //coup:hotpath: a fresh destination allocates its name and bins.
func (s *Snapshot) decodeCanonical(data []byte) bool {
	name, p := plainField(data, 0, snapName)
	kind, p := plainField(data, p, snapKind)
	if p < 0 {
		return false
	}
	t := *s
	t.Value, p = optInt(data, p, snapValue, t.Value)
	if hasFrag(data, p, snapEscalated) {
		t.Escalated, p = true, p+len(snapEscalated)
	}
	bins, nbins := -1, 0
	if hasFrag(data, p, snapBins) {
		bins = p + len(snapBins)
		nbins, p = scanUints(data, bins)
	}
	t.Total, p = optUint(data, p, snapTotal, t.Total)
	t.N, p = optUint(data, p, snapN, t.N)
	t.Min, p = optInt(data, p, snapMin, t.Min)
	t.Max, p = optInt(data, p, snapMax, t.Max)
	if p < 0 || p != len(data)-1 || data[p] != '}' {
		return false
	}
	if string(name) != t.Name {
		t.Name = string(name)
	}
	if t.Kind = servedWord(kind); t.Kind == "" {
		t.Kind = string(kind)
	}
	if bins >= 0 {
		t.Bins = appendUints(slices.Grow(t.Bins[:0], nbins), data[bins:])
	}
	*s = t
	return true
}

// optInt scans the optional key fragment frag and a plain integer at p,
// which may be -1. It returns the integer and the position after it, or
// old and p when frag is not there, or end -1.
func optInt(data []byte, p int, frag string, old int64) (v int64, end int) {
	if !hasFrag(data, p, frag) {
		return old, p
	}
	return plainInt(data, p+len(frag))
}

// optUint is optInt for a non-negative integer.
func optUint(data []byte, p int, frag string, old uint64) (v uint64, end int) {
	if !hasFrag(data, p, frag) {
		return old, p
	}
	if p += len(frag); p < len(data) && data[p] == '-' {
		return 0, -1
	}
	n, end := plainInt(data, p)
	return uint64(n), end
}

// scanUints scans the non-empty list of non-negative plain integers at p
// through its ']', and returns how many it holds and the position after
// the ']', or end -1.
func scanUints(data []byte, p int) (n, end int) {
	for {
		if p < len(data) && data[p] == '-' {
			return 0, -1
		}
		_, end := plainInt(data, p)
		if end < 0 || end == len(data) {
			return 0, -1
		}
		n, p = n+1, end+1
		switch data[end] {
		case ']':
			return n, p
		case ',':
		default:
			return 0, -1
		}
	}
}

// appendUints appends the integers of a list scanUints accepted, which
// starts data, to dst.
func appendUints(dst []uint64, data []byte) []uint64 {
	var v uint64
	for _, c := range data {
		switch c {
		case ',':
			dst, v = append(dst, v), 0
		case ']':
			return append(dst, v)
		default:
			v = v*10 + uint64(c-'0')
		}
	}
	return dst
}
