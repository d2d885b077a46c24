package coupd

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// checkDecodeParity decodes body with d and with encoding/json's
// Decoder into a zeroed BatchRequest — the decoder handleBatch used to
// run — and fails unless both accept or both reject and, on accept,
// both decode the same value. It resets d afterwards and reports
// whether the body was accepted.
func checkDecodeParity(t testing.TB, d *batchDecoder, body []byte) bool {
	t.Helper()
	defer d.reset()
	var want BatchRequest
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	got, gerr := d.decodeBatch(body)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("body %q: encoding/json err %v, decodeBatch err %v", body, werr, gerr)
	}
	if werr == nil && !reflect.DeepEqual(*got, want) {
		t.Fatalf("body %q:\ndecodeBatch  %#v\nencoding/json %#v", body, *got, want)
	}
	return werr == nil
}

// dirtyBody leaves a decoder's pooled buffers full of records, args and
// strings, so parity checks also prove a reused decoder carries nothing
// from one body into the next.
var dirtyBody = []byte(`{"updates":[` +
	`{"name":"old","kind":"hist","op":"add","args":[7,8,9],"bins":16},` +
	`{"name":"old2","kind":"minmax","op":"observe","args":[1],"bins":3},` +
	`{"name":"old3","kind":"refcount","op":"escalate","args":[4,5]}],` +
	`"client":"old-client","seq":99}`)

// parityCases are the edge cases of encoding/json's acceptance that the
// codec must reproduce, each with the verdict encoding/json gives it.
var parityCases = []struct {
	name   string
	body   string
	accept bool
}{
	{"plain", `{"updates":[{"name":"a","kind":"counter","op":"inc"}]}`, true},
	{"all fields", `{"updates":[{"name":"h","kind":"hist","op":"add","args":[3,-2],"bins":8}],"client":"c1","seq":7}`, true},
	{"whitespace", " \t\r\n{ \"seq\" : 1 ,\n\"updates\" : [ { \"name\" : \"a\" , \"args\" : [ 1 , 2 ] } ] } ", true},
	{"empty object", `{}`, true},

	{"case-insensitive keys", `{"UPDATES":[{"Name":"a","KIND":"counter","oP":"inc","ARGS":[1],"Bins":4}],"Client":"c","SEQ":3}`, true},
	{"kelvin and long s fold", "{\"update\u017f\":[{\"\u212aind\":\"hist\",\"\\u212aIND\":\"counter\"}],\"\u017feq\":1}", true},
	{"escaped key", `{"\u0073eq":5,"upd\u0061tes":[{"n\u0061me":"x"}]}`, true},
	{"dotted i does not fold", "{\"cl\u0130ent\":\"x\",\"kind\":1}", true},

	{"null fields", `{"updates":null,"client":null,"seq":null}`, true},
	{"null record fields", `{"updates":[{"name":null,"kind":null,"op":null,"args":null,"bins":null}]}`, true},
	{"null record", `{"updates":[null,{"name":"b"},null]}`, true},
	{"null after value", `{"seq":4,"seq":null,"client":"k","client":null}`, true},
	{"null args element", `{"updates":[{"args":[null,2,null]}]}`, true},

	{"unknown fields", `{"x":{"a":[1,2,{"b":null}],"c":"d"},"updates":[{"name":"a","extra":[true,false,"s",-1.5e3,{}]}],"y":"z","z":[]}`, true},
	{"unknown field bad syntax", `{"x":[1,],"seq":1}`, false},
	{"unknown field bad literal", `{"x":tru,"seq":1}`, false},
	{"unknown field bad escape", `{"x":"\q","seq":1}`, false},
	{"unknown field bad number", `{"x":01,"seq":1}`, false},
	{"unknown field bad exponent", `{"x":1e+,"seq":1}`, false},
	{"unknown field unterminated", `{"x":{"y":1}`, false},

	{"duplicate scalar", `{"seq":1,"seq":2,"client":"a","client":"b"}`, true},
	{"duplicate updates merge", `{"updates":[{"name":"a","args":[1,2,3]}],"updates":[{"op":"inc","args":[null,null]}]}`, true},
	{"duplicate updates re-expose", `{"updates":[{"name":"a"},{"name":"b","args":[1]}],"updates":[{"name":"c"}],"updates":[{},{}]}`, true},
	{"duplicate updates after empty", `{"updates":[{"name":"a"}],"updates":[],"updates":[{}]}`, true},
	{"duplicate updates after null", `{"updates":[{"name":"a"}],"updates":null,"updates":[{}]}`, true},
	{"duplicate args re-expose", `{"updates":[{"args":[1,2,3],"args":[5],"args":[null,null]}]}`, true},
	{"duplicate args grow", `{"updates":[{"args":[1,2],"args":[null,null,3,null]}]}`, true},
	{"duplicate args after empty", `{"updates":[{"args":[1,2],"args":[],"args":[null]}]}`, true},

	{"trailing garbage", `{"seq":1} trailing garbage`, true},
	{"second value", `{"seq":1}{"seq":2}`, true},
	{"top-level null", `null`, true},
	{"top-level null then garbage", ` null}}}`, true},

	{"empty updates", `{"updates":[]}`, true},
	{"empty args", `{"updates":[{"args":[]}]}`, true},
	{"int64 extremes", `{"updates":[{"args":[-9223372036854775808,9223372036854775807,-0]}]}`, true},
	{"uint64 max", `{"seq":18446744073709551615}`, true},

	{"empty body", ``, false},
	{"blank body", "  \n ", false},
	{"top-level array", `[]`, false},
	{"top-level string", `"s"`, false},
	{"top-level number", `1`, false},
	{"top-level bool", `true`, false},
	{"truncated", `{"updates":[{"name":"a"}`, false},
	{"truncated literal", `nul`, false},
	{"trailing comma", `{"seq":1,}`, false},
	{"missing colon", `{"seq" 1}`, false},
	{"unquoted key", `{seq:1}`, false},

	{"fractional seq", `{"seq":1.5}`, false},
	{"integral float seq", `{"seq":1.0}`, false},
	{"exponent seq", `{"seq":1e2}`, false},
	{"negative seq", `{"seq":-1}`, false},
	{"negative zero seq", `{"seq":-0}`, false},
	{"overflowing seq", `{"seq":18446744073709551616}`, false},
	{"overflowing arg", `{"updates":[{"args":[9223372036854775808]}]}`, false},
	{"underflowing arg", `{"updates":[{"args":[-9223372036854775809]}]}`, false},
	{"fractional bins", `{"updates":[{"bins":1.5}]}`, false},
	{"quoted seq", `{"seq":"1"}`, false},
	{"numeric client", `{"client":1}`, false},
	{"bool name", `{"updates":[{"name":true}]}`, false},
	{"object updates", `{"updates":{}}`, false},
	{"string updates", `{"updates":"x"}`, false},
	{"numeric record", `{"updates":[1]}`, false},
	{"array record", `{"updates":[[]]}`, false},
	{"string args", `{"updates":[{"args":"1"}]}`, false},
	{"bool arg", `{"updates":[{"args":[true]}]}`, false},
	{"nested arg", `{"updates":[{"args":[[1]]}]}`, false},

	{"escaped strings", `{"client":"a\u00e9\n\"\/","updates":[{"name":"\ud800x","kind":"co\u0075nter","op":"\u0069nc"}]}`, true},
	{"raw utf-8 and invalid bytes", "{\"client\":\"h\u00e9\xff\xfe\",\"updates\":[{\"name\":\"\xc3\"}]}", true},
	{"control byte in string", "{\"client\":\"a\x01\"}", false},
	{"bad unicode escape", `{"client":"\u12g4"}`, false},
	{"DEL is a plain byte", "{\"client\":\"a\x7f\"}", true},

	// Near-canonical records: each starts in the layout canonicalRecord
	// reads, then leaves it, so encoding/json must decode the whole body.
	{"canonical cut after name key", `{"updates":[{"name":`, false},
	{"canonical cut in name", `{"updates":[{"name":"a`, false},
	{"canonical cut after kind key", `{"updates":[{"name":"a","kind":`, false},
	{"canonical cut after op key", `{"updates":[{"name":"a","kind":"hist","op":`, false},
	{"canonical cut after args key", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[`, false},
	{"canonical cut in args", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[1,`, false},
	{"canonical cut after bins key", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[1],"bins":`, false},
	{"canonical cut in bins", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[1],"bins":4`, false},
	{"canonical cut after record", `{"updates":[{"name":"a","kind":"hist","op":"add"}`, false},
	{"canonical escaped value", `{"updates":[{"name":"a\u0062","kind":"counter","op":"inc"}]}`, true},
	{"canonical escaped quote", `{"updates":[{"name":"a","kind":"counter","op":"i\"nc"}]}`, true},
	{"canonical non-ASCII value", "{\"updates\":[{\"name\":\"h\u00e9\",\"kind\":\"counter\",\"op\":\"inc\"}]}", true},
	{"canonical invalid UTF-8 value", "{\"updates\":[{\"name\":\"a\",\"kind\":\"count\xffer\",\"op\":\"inc\"}]}", true},
	{"canonical control byte", "{\"updates\":[{\"name\":\"a\x1f\",\"kind\":\"counter\",\"op\":\"inc\"}]}", false},
	{"canonical raw angle bracket", `{"updates":[{"name":"a<b>&c","kind":"counter","op":"inc"}]}`, true},
	{"canonical reordered keys", `{"updates":[{"kind":"counter","name":"a","op":"inc"}]}`, true},
	{"canonical bins before args", `{"updates":[{"name":"a","kind":"hist","op":"add","bins":4,"args":[1]}]}`, true},
	{"canonical upper-case name key", `{"updates":[{"NAME":"a","kind":"counter","op":"inc"}]}`, true},
	{"canonical upper-case args key", `{"updates":[{"name":"a","kind":"hist","op":"add","Args":[1],"biNs":4}]}`, true},
	{"canonical missing op", `{"updates":[{"name":"a","kind":"counter"}]}`, true},
	{"canonical repeated op", `{"updates":[{"name":"a","kind":"counter","op":"inc","op":"dec"}]}`, true},
	{"canonical space after colon", `{"updates":[{"name": "a","kind":"counter","op":"inc"}]}`, true},
	{"canonical space after comma", `{"updates":[{"name":"a", "kind":"counter","op":"inc"}]}`, true},
	{"canonical space in args", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[1, 2]}]}`, true},
	{"canonical space before brace", `{"updates":[{"name":"a","kind":"hist","op":"add","bins":4 }]}`, true},
	{"canonical empty args", `{"updates":[{"name":"a","kind":"counter","op":"inc","args":[]}]}`, true},
	{"canonical args trailing comma", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[1,]}]}`, false},
	{"canonical args leading zero", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[01]}]}`, false},
	{"canonical args fraction", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[1.0]}]}`, false},
	{"canonical args exponent", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[1e2]}]}`, false},
	{"canonical args bare minus", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[-]}]}`, false},
	{"canonical args plus sign", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[+1]}]}`, false},
	{"canonical args null", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[null]}]}`, true},
	{"canonical args 18 digits", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[-999999999999999999,999999999999999999]}]}`, true},
	{"canonical args 19 digits", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[1234567890123456789]}]}`, true},
	{"canonical args 20 digits", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[12345678901234567890]}]}`, false},
	{"canonical args int64 extremes", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[-9223372036854775808,9223372036854775807]}]}`, true},
	{"canonical fractional bins", `{"updates":[{"name":"a","kind":"hist","op":"add","bins":1.5}]}`, false},
	{"canonical negative zero bins", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[-0],"bins":-0}]}`, true},
	{"canonical bins past int", `{"updates":[{"name":"a","kind":"hist","op":"add","bins":9223372036854775808}]}`, false},
	{"canonical unknown key after bins", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[1],"bins":4,"x":[1]}]}`, true},
	{"canonical duplicate updates merge", `{"updates":[{"name":"a","kind":"hist","op":"add","args":[1,2],"bins":4}],` +
		`"updates":[{"name":"b","kind":"counter","op":"inc"},{"name":"c","kind":"counter","op":"inc"}]}`, true},
	{"canonical duplicate updates re-expose", `{"updates":[{"name":"a","kind":"counter","op":"inc"},{"name":"b","kind":"hist","op":"add","args":[1],"bins":2}],` +
		`"updates":[{"name":"c","kind":"counter","op":"inc"}],"updates":[{"name":"d","kind":"counter","op":"inc"},{"name":"e","kind":"counter","op":"inc"}]}`, true},

	// Near-canonical bodies: each starts in the layout canonicalBody
	// reads, then leaves it, so encoding/json must decode the whole body.
	{"canonical body seq 18 digits", `{"updates":null,"seq":999999999999999999}`, true},
	{"canonical body seq 19 digits", `{"updates":null,"seq":1234567890123456789}`, true},
	{"canonical body seq 20 digits", `{"updates":null,"seq":12345678901234567890}`, true},
	{"canonical body negative zero seq", `{"updates":null,"seq":-0}`, false},
	{"canonical body negative seq", `{"updates":null,"seq":-1}`, false},
	{"canonical body empty updates with client and seq", `{"updates":[],"client":"c","seq":5}`, true},
	{"canonical body trailing space", `{"updates":[{"name":"a","kind":"counter","op":"inc"}],"seq":1} `, true},
	{"canonical body trailing garbage", `{"updates":[{"name":"a","kind":"counter","op":"inc"}],"seq":1}x`, true},
	{"canonical body records trailing comma", `{"updates":[{"name":"a","kind":"counter","op":"inc"},]}`, false},
	{"canonical body escaped client", `{"updates":null,"client":"a\u0062"}`, true},
	{"canonical body empty client", `{"updates":null,"client":""}`, true},
}

// TestDecodeBatchParity pins decodeBatch to encoding/json on every edge
// case of acceptance and decoding, with a fresh decoder and with one
// reused after a dirtying body.
func TestDecodeBatchParity(t *testing.T) {
	reused := &batchDecoder{}
	for _, tc := range parityCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkDecodeParity(t, &batchDecoder{}, []byte(tc.body)); got != tc.accept {
				t.Fatalf("accepted = %v, want %v", got, tc.accept)
			}
			checkDecodeParity(t, reused, dirtyBody)
			checkDecodeParity(t, reused, []byte(tc.body))
		})
	}
}

// TestDecodeBatchDepth pins encoding/json's nesting limit inside an
// unknown field.
func TestDecodeBatchDepth(t *testing.T) {
	const maxDepth = 10000 // encoding/json's limit for nested arrays and objects

	nest := func(n int) []byte { // the top-level object plus n arrays
		return []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
	}
	if !checkDecodeParity(t, &batchDecoder{}, nest(maxDepth-1)) {
		t.Error("nesting at the limit rejected")
	}
	if checkDecodeParity(t, &batchDecoder{}, nest(maxDepth)) {
		t.Error("nesting past the limit accepted")
	}
}

// TestDecodeBatchRecordsIsolated pins the full-slice carving of Args:
// growing one record's args in place must never write into another's.
func TestDecodeBatchRecordsIsolated(t *testing.T) {
	var d batchDecoder
	body := []byte(`{"updates":[{"name":"a","kind":"hist","op":"add","args":[1]},{"name":"b","kind":"hist","op":"add","args":[2]}]}`)
	req, err := d.decodeBatch(body)
	if err != nil {
		t.Fatal(err)
	}
	a := req.Updates[0].Args
	if cap(a) != len(a) {
		t.Fatalf("record 0 args cap %d > len %d: records share capacity", cap(a), len(a))
	}
	_ = append(a, 99)
	if req.Updates[1].Args[0] != 2 {
		t.Fatalf("appending to record 0's args overwrote record 1's: %v", req.Updates[1].Args)
	}
}

// checkCanonical fails unless canonicalRecord reads each record of body,
// a non-empty batch appendBatch wrote, in one pass and to the matching
// record of want.
func checkCanonical(t testing.TB, body []byte, want []Update) {
	t.Helper()
	var d batchDecoder
	pos := len(`{"updates":[`)
	for i, w := range want {
		var got Update
		end := d.canonicalRecord(&got, body, pos)
		if end < 0 {
			t.Fatalf("record %d of %s: not read as canonical", i, body)
		}
		if len(w.Args) == 0 {
			w.Args = nil // omitted, so never decoded
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("record %d of %s:\ncanonicalRecord %#v\nencoded         %#v", i, body, got, w)
		}
		next := byte(',')
		if i == len(want)-1 {
			next = ']'
		}
		if body[end] != next {
			t.Fatalf("record %d of %s: ends at offset %d, before %q", i, body, end, body[end])
		}
		pos = end + 1
	}
}

// encodesCanonical reports whether appendBatch writes u's strings as
// ASCII without escapes and its integers in at most 18 digits: the
// records the fast path exists for.
func encodesCanonical(u Update) bool {
	for _, s := range []string{u.Name, u.Kind, u.Op} {
		nonASCII := strings.IndexFunc(s, func(r rune) bool { return r >= utf8.RuneSelf }) >= 0
		if nonASCII || len(appendString(nil, s)) != len(s)+2 {
			return false
		}
	}
	short := func(v int64) bool { return -1e18 < v && v < 1e18 }
	for _, a := range u.Args {
		if !short(a) {
			return false
		}
	}
	return short(int64(u.Bins))
}

// TestCanonicalRecord pins the encoder to the decoder's fast path: every
// record appendBatch writes with plain strings and short integers is read
// by canonicalRecord, and to the record that was encoded.
func TestCanonicalRecord(t *testing.T) {
	recs := append(benchBatch("", 0).Updates,
		Update{},
		Update{Name: "a b~\x7f", Kind: "hist", Op: "add", Args: []int64{0, -1, 999_999_999_999_999_999, -999_999_999_999_999_999}, Bins: -3},
		Update{Name: "custom", Kind: "gauge", Op: "set", Args: []int64{}, Bins: 1},
		Update{Name: "x", Kind: "refcount", Op: "escalate", Bins: 999_999_999_999_999_999},
	)
	for _, u := range recs {
		if !encodesCanonical(u) {
			t.Fatalf("%#v is not a canonical record", u)
		}
	}
	req := BatchRequest{Updates: recs, Client: "c", Seq: 1}
	checkCanonical(t, appendBatch(nil, &req), recs)
}

// TestDecodeBatchZeroAllocs pins the steady state for canonical bodies:
// once a pooled decoder has seen a batch shape, reading and decoding
// another batch of it allocates nothing — records, args and strings all
// come from the decoder.
func TestDecodeBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// The sequenced and bare bench batches, and {"updates":null}.
	for _, req := range []BatchRequest{benchBatch("alloc-pin", 100_000_000_000), benchBatch("", 0), {}} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var d batchDecoder
		rd := bytes.NewReader(body)
		run := func() {
			rd.Reset(body)
			data, err := d.readBody(rd, int64(len(body)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.decodeBatch(data)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Updates) != len(req.Updates) || got.Client != req.Client || got.Seq != req.Seq {
				t.Fatalf("decoded %d records client %q seq %d", len(got.Updates), got.Client, got.Seq)
			}
			d.reset()
		}
		run() // size the buffers and fill the intern table
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Errorf("warm decode of %.40s… allocates %.1f/op, want 0", body, avg)
		}
	}
}

// TestDecodeBatchOversizedBody pins the one deliberate departure from
// encoding/json's streaming decode: a body past MaxBatchBytes is
// rejected whole, even when a complete value ends before the cap.
func TestDecodeBatchOversizedBody(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"updates":[{"name":"big","kind":"counter","op":"inc"}]}` + strings.Repeat(" ", MaxBatchBytes)
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("oversized body: HTTP %d, want 400", resp.StatusCode)
	}
	if v := counterValue(t, ts.URL, "big"); v != 0 {
		t.Errorf("oversized body applied %d updates", v)
	}
}

// mixedBatch touches one structure of each kind.
var mixedBatch = BatchRequest{Updates: []Update{
	{Name: "hits", Kind: "counter", Op: "inc"},
	{Name: "lat", Kind: "hist", Op: "add", Args: []int64{3, 2}, Bins: 32},
	{Name: "span", Kind: "minmax", Op: "observe", Args: []int64{1042}},
	{Name: "refs", Kind: "refcount", Op: "inc"},
}}

// seedBodies are the batch bodies the coupd tests send, the fuzz corpus
// seed.
func seedBodies(tb testing.TB) [][]byte {
	reqs := []BatchRequest{
		benchBatch("", 0),
		benchBatch("bench", 100_000_000_000),
		seqBatch("c1", 1, inc("sq"), inc("sq"), inc("sq")),
		seqBatch("c2", 1, inc("vta"), Update{Name: "vta", Kind: "counter", Op: "no-such-op"}, inc("vta")),
		mixedBatch,
		{Updates: []Update{
			{Name: "b", Kind: "hist", Op: "inc", Args: []int64{1}, Bins: 4},
			{Name: "c", Kind: "counter", Op: "add", Args: []int64{5}},
		}},
		{Updates: []Update{}},
		{},
	}
	var bodies [][]byte
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	bodies = append(bodies, []byte(`{"updates":[{"name":"x","kind":"counter","op":"inc"}]}`), dirtyBody)
	for _, tc := range parityCases {
		bodies = append(bodies, []byte(tc.body))
	}
	return bodies
}

// FuzzDecodeBatch holds decodeBatch to encoding/json on arbitrary bytes:
// the same accept/reject verdict and, on accept, the same value — from a
// fresh decoder and from a reused, dirtied one.
func FuzzDecodeBatch(f *testing.F) {
	for _, b := range seedBodies(f) {
		f.Add(b)
	}
	reused := &batchDecoder{}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeParity(t, &batchDecoder{}, body)
		checkDecodeParity(t, reused, dirtyBody)
		checkDecodeParity(t, reused, body)
	})
}

// FuzzHandleBatch posts arbitrary bodies through Server.ServeHTTP, each
// to a fresh server primed with mixedBatch. No body may draw a 500 or a
// recovered panic; a 200 must report every record encoding/json decodes
// as applied; and a rejected body must leave the structures that
// existed before it unchanged and any it created at their zero value.
func FuzzHandleBatch(f *testing.F) {
	for _, b := range seedBodies(f) {
		f.Add(b)
	}
	primer, err := json.Marshal(mixedBatch)
	if err != nil {
		f.Fatal(err)
	}
	post := func(s *Server, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		return w
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New()
		if err != nil {
			t.Fatal(err)
		}
		if w := post(s, primer); w.Code != http.StatusOK {
			t.Fatalf("primer: HTTP %d: %s", w.Code, w.Body)
		}
		before := snapshots(t, s)
		w := post(s, body)
		if w.Code == http.StatusInternalServerError || s.panics.Value() != 0 {
			t.Fatalf("body %.200q: HTTP %d, %d panics: %s", body, w.Code, s.panics.Value(), w.Body)
		}
		var want BatchRequest
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if w.Code == http.StatusOK {
			var got BatchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil || werr != nil || got.Applied != len(want.Updates) {
				t.Fatalf("body %.200q: HTTP 200 %s (err %v), encoding/json decodes %d records (err %v)",
					body, w.Body, err, len(want.Updates), werr)
			}
			return
		}
		for name, snap := range snapshots(t, s) {
			old, ok := before[name]
			if !ok {
				old = Snapshot{Name: snap.Name, Kind: snap.Kind}
				if snap.Bins != nil {
					old.Bins = make([]uint64, len(snap.Bins))
				}
			}
			if !reflect.DeepEqual(snap, old) {
				t.Fatalf("body %.200q: HTTP %d, yet %q went from %+v to %+v", body, w.Code, name, old, snap)
			}
		}
	})
}

// snapshots reduces every structure of s, keyed by name.
func snapshots(t *testing.T, s *Server) map[string]Snapshot {
	t.Helper()
	snaps := map[string]Snapshot{}
	for _, name := range s.reg.Names() {
		var snap Snapshot
		if err := s.reg.Snapshot(name, &snapScratch{}, &snap); err != nil {
			t.Fatal(err)
		}
		snaps[name] = snap
	}
	return snaps
}

// FuzzAppendBatch holds appendBatch to json.Marshal: byte-identical
// output, which encoding/json and decodeBatch then decode alike — and,
// for valid UTF-8 strings, back to the request that was encoded.
func FuzzAppendBatch(f *testing.F) {
	f.Add("hits", "counter", "inc", int64(0), int64(0), uint8(0), 0, "", uint64(0), uint8(1))
	f.Add("lat", "hist", "add", int64(17), int64(2), uint8(2), 512, "bench", uint64(100_000_000_000), uint8(4))
	f.Add("span", "minmax", "observe", int64(-1), int64(0), uint8(1), 0, "c1", uint64(1), uint8(3))
	f.Add("a<b>&\"\\", "\u2028", "\x00\xff", int64(-9223372036854775808), int64(9223372036854775807), uint8(3), -1, "h\u00e9", uint64(18446744073709551615), uint8(2))
	f.Add("", "", "", int64(0), int64(0), uint8(0), 0, "", uint64(0), uint8(0))
	f.Add("x", "counter", "inc", int64(0), int64(0), uint8(0), 0, "", uint64(0), uint8(5))
	f.Fuzz(func(t *testing.T, name, kind, op string, a0, a1 int64, nargs uint8, bins int, client string, seq uint64, nrec uint8) {
		req := BatchRequest{Client: client, Seq: seq}
		switch n := int(nrec % 6); n {
		case 0: // nil Updates: "updates":null
		case 5:
			req.Updates = []Update{}
		default:
			for i := 0; i < n; i++ {
				u := Update{Name: name + strconv.Itoa(i), Kind: kind, Op: op, Bins: bins}
				switch nargs % 4 {
				case 1:
					u.Args = []int64{a0 + int64(i)}
				case 2:
					u.Args = []int64{a0, a1 - int64(i)}
				case 3:
					u.Args = []int64{} // omitted, like nil
				}
				req.Updates = append(req.Updates, u)
			}
		}
		got := appendBatch(nil, &req)
		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendBatch\n%s\njson.Marshal\n%s", got, want)
		}
		if !checkDecodeParity(t, &batchDecoder{}, got) {
			t.Fatalf("encoded batch rejected: %s", got)
		}
		canonical := len(req.Updates) > 0
		for _, u := range req.Updates {
			canonical = canonical && encodesCanonical(u)
		}
		if canonical {
			checkCanonical(t, got, req.Updates)
		}
		for _, s := range []string{name, kind, op, client} {
			if !utf8.ValidString(s) {
				return // invalid UTF-8 decodes to U+FFFD, not to itself
			}
		}
		var back BatchRequest
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		for i := range req.Updates {
			if len(req.Updates[i].Args) == 0 {
				req.Updates[i].Args = nil // omitempty drops an empty Args
			}
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("round trip\n%#v\nwant\n%#v", back, req)
		}
	})
}
