package coupd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// The batch codec: POST /v1/batch bodies are decoded by a scanner that
// knows the BatchRequest schema, and Session.Send encodes them with an
// append-style encoder. The wire is the JSON that encoding/json reads and
// writes — same bytes, same acceptance — but neither side uses reflection,
// the bulk of a batch's cost under encoding/json. Responses and every
// other body stay on encoding/json.
//
// decodeBatch accepts exactly the bodies json.NewDecoder(body).Decode
// accepts into a zeroed BatchRequest and decodes each to the same value
// (FuzzDecodeBatch holds it to that), including encoding/json's less
// obvious rules:
//
//   - keys match fields case-insensitively (Unicode simple folding, so
//     "KIND" and "Kind" both name kind);
//   - null leaves a string or number field alone and sets a slice to nil;
//   - unknown fields of any shape are skipped, but syntax-checked;
//   - duplicate keys decode again into the same field, so a repeated
//     array merges element-wise into the slice it re-decodes into;
//   - bytes after the first complete value are ignored;
//   - a number bound for an integer field must be an integer that fits.
//
// String tokens holding an escape or a non-ASCII byte are unescaped by
// json.Unmarshal, so U+FFFD substitution and escape rules are the
// standard library's; every other token is read in place.
//
// Records in the exact layout the encoders write (recName … recBins
// below) are read in one pass by canonicalRecord; a record in any other
// layout goes to the general scanner from its first byte, so the fast
// path changes speed, never acceptance or values.

// Pooled-buffer caps: a decoder whose buffers grew past these for one
// huge batch drops them rather than pinning them in the pool.
const (
	maxPooledBody = 1 << 20
	maxPooledRecs = maxPooledBody / 80 // ~sizeof(Update)
	maxPooledArgs = maxPooledBody / 8
)

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// Empty-but-non-nil slices for `[]`, which encoding/json decodes to a
// fresh zero-capacity slice. Zero capacity makes sharing them safe.
var (
	noUpdates = []Update{}
	noArgs    = []int64{}
)

// batchDecoder is one request's decode state, pooled by the Server.
// Everything a decoded BatchRequest points at — records, their Args,
// interned strings — lives here, so a warm decode allocates nothing.
type batchDecoder struct {
	req  BatchRequest
	body []byte // the request body, read whole
	// recs backs req.Updates. Its length is the high-water mark of
	// records this request has written: a duplicate "updates" key that
	// grows the slice again re-exposes those, exactly as encoding/json
	// re-exposes a truncated slice's old elements; records past it are
	// zeroed as they are appended.
	recs  []Update
	args  []int64 // arena every record's Args is carved from
	names internTable

	data  []byte // the body being scanned
	pos   int
	depth int
}

// reset empties the decoder for reuse, dropping buffers a huge batch
// grew past the pool caps.
func (d *batchDecoder) reset() {
	d.req = BatchRequest{}
	d.data = nil
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

// decodeBatch decodes one BatchRequest from data. The result points into
// the decoder and is valid until its next reset.
func (d *batchDecoder) decodeBatch(data []byte) (*BatchRequest, error) {
	d.req = BatchRequest{}
	d.recs, d.args = d.recs[:0], d.args[:0]
	d.data, d.pos, d.depth = data, 0, 0
	d.skipSpace()
	if d.pos == len(d.data) {
		return nil, errors.New("json: empty body")
	}
	var err error
	switch d.data[d.pos] {
	case '{':
		err = d.batchObject()
	case 'n':
		err = d.literal("null") // leaves the request zero
	default:
		// Any other value is a syntax or a type error; say which.
		if err = d.skipValue(); err == nil {
			err = errors.New("json: cannot unmarshal top-level value into Go value of type coupd.BatchRequest")
		}
	}
	if err != nil {
		return nil, err
	}
	return &d.req, nil
}

// Field ids. Keys outside a schema resolve to fieldUnknown.
const (
	fieldUnknown = iota
	fieldUpdates
	fieldClient
	fieldSeq
	fieldName
	fieldKind
	fieldOp
	fieldArgs
	fieldBins
)

var (
	batchFields  = []string{fieldUpdates: "updates", fieldClient: "client", fieldSeq: "seq"}
	updateFields = []string{fieldName: "name", fieldKind: "kind", fieldOp: "op", fieldArgs: "args", fieldBins: "bins"}
)

func (d *batchDecoder) batchObject() error {
	return d.object(batchFields, func(f int) error {
		switch f {
		case fieldUpdates:
			return d.updates()
		case fieldClient:
			return d.stringInto(&d.req.Client, d.names.intern)
		case fieldSeq:
			return d.uintInto(&d.req.Seq)
		}
		return d.skipValue()
	})
}

// object scans an object at d.pos, resolving each key against fields
// (a table indexed by field id) and handing its id to value, which must
// consume the value.
func (d *batchDecoder) object(fields []string, value func(field int) error) error {
	if err := d.enter(); err != nil {
		return err
	}
	d.pos++ // '{'
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		f, err := d.key(fields)
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.syntaxError("after object key")
		}
		d.pos++
		d.skipSpace()
		if err := value(f); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// array scans an array at d.pos, handing each element's index to elem,
// which must consume the element, and returns the element count.
func (d *batchDecoder) array(elem func(n int) error) (int, error) {
	if err := d.enter(); err != nil {
		return 0, err
	}
	d.pos++ // '['
	n := 0
	for d.skipSpace(); d.peek() != ']'; n++ {
		if n > 0 {
			if d.peek() != ',' {
				return 0, d.syntaxError("after array element")
			}
			d.pos++
			d.skipSpace()
		}
		if err := elem(n); err != nil {
			return 0, err
		}
		d.skipSpace()
	}
	d.pos++ // ']'
	d.depth--
	return n, nil
}

// key scans an object key and returns the id of the field it names.
func (d *batchDecoder) key(fields []string) (int, error) {
	tok, plain, err := d.stringToken()
	if err != nil {
		return 0, err
	}
	if len(fields) == 0 {
		return fieldUnknown, nil
	}
	raw := tok[1 : len(tok)-1]
	if plain {
		for f, name := range fields {
			if name != "" && asciiFoldEqual(raw, name) {
				return f, nil
			}
		}
		return fieldUnknown, nil
	}
	var key string
	if err := json.Unmarshal(tok, &key); err != nil {
		return 0, err
	}
	for f, name := range fields {
		if name != "" && strings.EqualFold(key, name) {
			return f, nil
		}
	}
	return fieldUnknown, nil
}

// asciiFoldEqual reports whether the ASCII bytes b spell the lower-case
// name under ASCII case folding.
func asciiFoldEqual(b []byte, name string) bool {
	if len(b) != len(name) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// updates decodes the "updates" value into d.req.Updates.
func (d *batchDecoder) updates() error {
	switch d.peek() {
	case 'n':
		d.req.Updates, d.recs = nil, d.recs[:0]
		return d.literal("null")
	case '[':
	default:
		return d.typeMismatch("[]coupd.Update")
	}
	cur := d.req.Updates
	n, err := d.array(func(n int) error {
		if n == len(cur) {
			if n == len(d.recs) {
				d.recs = append(d.recs, Update{})
			}
			cur = d.recs[:n+1]
		}
		if d.canonicalRecord(&cur[n]) {
			return nil
		}
		return d.update(&cur[n])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		cur, d.recs = noUpdates, d.recs[:0]
	}
	d.req.Updates = cur[:n]
	return nil
}

// update decodes one element of "updates" into u, merging into what u
// already holds (zero unless a duplicate key re-decodes it).
func (d *batchDecoder) update(u *Update) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.typeMismatch("coupd.Update")
	}
	return d.object(updateFields, func(f int) error {
		switch f {
		case fieldName:
			return d.stringInto(&u.Name, d.names.intern)
		case fieldKind:
			return d.stringInto(&u.Kind, d.wordString)
		case fieldOp:
			return d.stringInto(&u.Op, d.wordString)
		case fieldArgs:
			return d.argsInto(&u.Args)
		case fieldBins:
			v := int64(u.Bins)
			err := d.intInto(&v, strconv.IntSize)
			u.Bins = int(v)
			return err
		}
		return d.skipValue()
	})
}

// The canonical record layout, as appendBatch and json.Marshal both write
// an Update: recName, a string, recKind, a string, recOp, a string, then
// recArgs with its integers and ']' when Args is non-empty, then recBins
// and an integer when Bins is non-zero, then '}'.
const (
	recName = `{"name":`
	recKind = `,"kind":`
	recOp   = `,"op":`
	recArgs = `,"args":[`
	recBins = `,"bins":`
)

// canonicalRecord decodes the record at d.pos into u in one pass when it
// is in the canonical layout with plain strings and plain integers, and
// u is still zero; it reports whether it did. Such a record has no
// repeated, unknown or case-folded key and no token that needs
// unescaping, so it decodes as update would decode it. Otherwise d and u
// are left as they were and update decodes the record from its first
// byte.
//
//coup:hotpath
func (d *batchDecoder) canonicalRecord(u *Update) bool {
	if u.Name != "" || u.Kind != "" || u.Op != "" || u.Args != nil || u.Bins != 0 {
		return false // a repeated "updates" key merges into u
	}
	data := d.data
	name, p := plainField(data, d.pos, recName)
	kind, p := plainField(data, p, recKind)
	op, p := plainField(data, p, recOp)
	if p < 0 {
		return false
	}
	args := d.args // stored back on success only, so a failed attempt leaves the arena as it was
	if hasFrag(data, p, recArgs) {
		p += len(recArgs)
		for {
			v, end := plainInt(data, p)
			if end < 0 || end == len(data) {
				return false
			}
			args = append(args, v)
			p = end + 1
			if data[end] == ']' {
				break
			}
			if data[end] != ',' {
				return false
			}
		}
	}
	var bins int64
	if hasFrag(data, p, recBins) {
		if bins, p = plainInt(data, p+len(recBins)); p < 0 || int64(int(bins)) != bins {
			return false
		}
	}
	if p == len(data) || data[p] != '}' {
		return false
	}
	u.Name, u.Kind, u.Op = d.names.intern(name), d.wordString(kind), d.wordString(op)
	if len(args) > len(d.args) {
		u.Args = args[len(d.args):len(args):len(args)]
	}
	u.Bins = int(bins)
	d.args, d.pos = args, p+1
	return true
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

// argsInto decodes an array of integers into *dst with encoding/json's
// slice semantics: elements re-decode in place (null keeps the old
// value), growth within capacity re-exposes old elements, the slice is
// truncated to the array's length, and `[]` yields an empty slice.
// Storage comes from the decoder's arena; each record's Args is carved
// with a full slice expression, so no two records share capacity.
func (d *batchDecoder) argsInto(dst *[]int64) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.typeMismatch("[]int64")
	}
	cur := *dst
	start := -1 // arena offset of cur once cur is the arena's tail
	if cap(cur) == 0 {
		start = len(d.args)
	}
	n, err := d.array(func(n int) error {
		if n == len(cur) {
			if n < cap(cur) {
				cur = cur[:n+1]
			} else {
				if start < 0 { // move cur to the arena's tail, then grow it there
					start = len(d.args)
					d.args = append(d.args, cur...)
				}
				d.args = append(d.args, 0)
				cur = d.args[start:len(d.args):len(d.args)]
			}
		}
		return d.intInto(&cur[n], 64)
	})
	if err != nil {
		return err
	}
	if n == 0 {
		cur = noArgs
	}
	*dst = cur[:n]
	return nil
}

// stringInto decodes a string value into *dst, turning plain tokens
// into strings with conv; null leaves *dst alone.
func (d *batchDecoder) stringInto(dst *string, conv func([]byte) string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.typeMismatch("string")
	}
	tok, plain, err := d.stringToken()
	if err != nil {
		return err
	}
	if plain {
		*dst = conv(tok[1 : len(tok)-1])
		return nil
	}
	return json.Unmarshal(tok, dst)
}

// wordString returns the constant for a served kind or op, so the
// common records allocate nothing for them.
func (d *batchDecoder) wordString(b []byte) string {
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
	return d.names.intern(b)
}

// integer decodes an integer value into its sign and magnitude; set is
// false for null. A fraction, an exponent or a magnitude past uint64 is
// a type error against goType.
func (d *batchDecoder) integer(goType string) (neg bool, mag uint64, set bool, err error) {
	switch c := d.peek(); {
	case c == 'n':
		return false, 0, false, d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return false, 0, false, d.typeMismatch(goType)
	}
	tok, err := d.number()
	if err != nil {
		return false, 0, false, err
	}
	digits, neg := tok, tok[0] == '-'
	if neg {
		digits = tok[1:]
	}
	mag, ok := parseDigits(digits)
	if !ok {
		return false, 0, false, d.numberError(goType)
	}
	return neg, mag, true, nil
}

// intInto decodes an integer that fits a signed integer of the given
// bit size into *dst; null leaves *dst alone.
func (d *batchDecoder) intInto(dst *int64, bits int) error {
	neg, mag, set, err := d.integer("int")
	if err != nil || !set {
		return err
	}
	limit := uint64(1) << (bits - 1) // |min|; max is limit-1
	if (!neg && mag >= limit) || (neg && mag > limit) {
		return d.numberError("int")
	}
	*dst = int64(mag)
	if neg {
		*dst = -*dst
	}
	return nil
}

// uintInto decodes a non-negative integer into *dst; null leaves *dst
// alone.
func (d *batchDecoder) uintInto(dst *uint64) error {
	neg, mag, set, err := d.integer("uint64")
	if err != nil || !set {
		return err
	}
	if neg { // even -0, as strconv.ParseUint has it
		return d.numberError("uint64")
	}
	*dst = mag
	return nil
}

// parseDigits parses an all-digit token as a uint64, failing on any
// other byte (sign, fraction, exponent) or overflow.
func parseDigits(tok []byte) (uint64, bool) {
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' || v > (1<<64-1)/10 {
			return 0, false
		}
		next := v*10 + uint64(c-'0')
		if next < v {
			return 0, false
		}
		v = next
	}
	return v, len(tok) > 0
}

// The scanner.

func (d *batchDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *batchDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// enter counts one more level of array/object nesting.
func (d *batchDecoder) enter() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntaxError("exceeded max depth")
	}
	return nil
}

// literal consumes the literal lit (null, true or false) at d.pos.
func (d *batchDecoder) literal(lit string) error {
	if !hasFrag(d.data, d.pos, lit) {
		return d.syntaxError("in literal " + lit)
	}
	d.pos += len(lit)
	return nil
}

// stringToken scans the string at d.pos and returns it with its quotes.
// plain reports that it holds no escape and no byte outside ASCII, so
// its bytes between the quotes are its value.
func (d *batchDecoder) stringToken() (tok []byte, plain bool, err error) {
	start := d.pos
	if end := plainString(d.data, start); end >= 0 {
		d.pos = end
		return d.data[start:end], true, nil
	}
	for d.pos++; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start:d.pos], false, nil
		case c == '\\':
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for i := 0; i < 4; i++ {
					d.pos++
					if !isHex(d.peek()) {
						return nil, false, d.syntaxError("in \\u hexadecimal character escape")
					}
				}
			default:
				return nil, false, d.syntaxError("in string escape code")
			}
		case c < 0x20:
			return nil, false, d.syntaxError("in string literal")
		}
	}
	return nil, false, d.syntaxError("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number scans a JSON number at d.pos.
func (d *batchDecoder) number() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.syntaxError("in numeric literal")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, d.syntaxError("in exponent of numeric literal")
		}
	}
	return d.data[start:d.pos], nil
}

// digits consumes a run of digits, reporting whether there was one.
func (d *batchDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// skipValue consumes any JSON value, checking its syntax.
func (d *batchDecoder) skipValue() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(nil, func(int) error { return d.skipValue() })
	case c == '[':
		_, err := d.array(func(int) error { return d.skipValue() })
		return err
	case c == '"':
		_, _, err := d.stringToken()
		return err
	case c == 'n':
		return d.literal("null")
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	default:
		_, err := d.number()
		return err
	}
}

// Errors. Their wording follows encoding/json's; a bad body is answered
// 400 whatever the error says.

func (d *batchDecoder) syntaxError(where string) error {
	if d.pos >= len(d.data) {
		return errors.New("json: unexpected end of JSON input")
	}
	return fmt.Errorf("json: invalid character %q %s (offset %d)", d.data[d.pos], where, d.pos)
}

// typeMismatch reports the value at d.pos as the wrong JSON type for a
// Go field of type goType.
func (d *batchDecoder) typeMismatch(goType string) error {
	what := "number"
	switch d.peek() {
	case '{':
		what = "object"
	case '[':
		what = "array"
	case '"':
		what = "string"
	case 't', 'f':
		what = "bool"
	}
	return fmt.Errorf("json: cannot unmarshal %s into Go value of type %s (offset %d)", what, goType, d.pos)
}

// numberError reports the number ending at d.pos as no value of goType.
func (d *batchDecoder) numberError(goType string) error {
	return fmt.Errorf("json: cannot unmarshal number ending at offset %d into Go value of type %s", d.pos, goType)
}

// internTable dedups the strings a decoder hands out (structure names,
// client ids): a hit returns the stored string without allocating, a
// miss allocates once and stores it. Its size is fixed — a bounded,
// lock-free cache owned by one pooled decoder at a time — and strings
// longer than maxInternLen are never stored.
type internTable struct {
	slots [internSlots]string
}

const (
	internSlots  = 256 // power of two
	internProbe  = 4   // slots searched per lookup
	maxInternLen = 256 // validName's limit
)

func (t *internTable) intern(b []byte) string {
	if len(b) == 0 || len(b) > maxInternLen {
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
	dst = append(dst, `{"updates":`...)
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
		dst = append(dst, `,"client":`...)
		dst = appendString(dst, req.Client)
	}
	if req.Seq != 0 {
		dst = append(dst, `,"seq":`...)
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
