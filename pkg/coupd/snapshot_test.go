package coupd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// wireCase is a structure TestSnapshotWire serves: it is built by its
// updates (a rejected update still creates its structure at its zero
// value) and must reduce to want.
type wireCase struct {
	name    string
	updates []Update
	want    Snapshot
}

// wireCases are one structure of each shape. They are built on demand, so
// the 4096-bin histogram does not sit in every test binary's heap.
func wireCases() []wireCase {
	return []wireCase{
		{"counter 0", []Update{{Name: "c0", Kind: "counter", Op: "bogus"}},
			Snapshot{Name: "c0", Kind: "counter"}},
		{"counter negative", []Update{{Name: "cneg", Kind: "counter", Op: "add", Args: []int64{-5}}},
			Snapshot{Name: "cneg", Kind: "counter", Value: -5}},
		{"minmax N=0", []Update{{Name: "mm0", Kind: "minmax", Op: "observe"}},
			Snapshot{Name: "mm0", Kind: "minmax"}},
		{"minmax N>0", []Update{
			{Name: "mm", Kind: "minmax", Op: "observe", Args: []int64{-3}},
			{Name: "mm", Kind: "minmax", Op: "observe", Args: []int64{7}},
		}, Snapshot{Name: "mm", Kind: "minmax", N: 2, Min: -3, Max: 7}},
		{"refcount escalated", []Update{
			{Name: "rc", Kind: "refcount", Op: "add", Args: []int64{3}},
			{Name: "rc", Kind: "refcount", Op: "escalate"},
			{Name: "rc", Kind: "refcount", Op: "dec"},
		}, Snapshot{Name: "rc", Kind: "refcount", Value: 2, Escalated: true}},
		{"hist total 0", []Update{{Name: "h0", Kind: "hist", Op: "inc", Args: []int64{99}, Bins: 4}},
			Snapshot{Name: "h0", Kind: "hist", Bins: []uint64{0, 0, 0, 0}}},
		{"hist 4096 bins", histUpdates("lat", 4096), histSnapshot("lat", 4096)},
		{"escaped name", []Update{{Name: "a<b>&\"c\"\\", Kind: "counter", Op: "inc"}},
			Snapshot{Name: "a<b>&\"c\"\\", Kind: "counter", Value: 1}},
		{"non-ASCII name", []Update{{Name: "h\u00e9\u2028\t", Kind: "counter", Op: "inc"}},
			Snapshot{Name: "h\u00e9\u2028\t", Kind: "counter", Value: 1}},
		{"invalid UTF-8 name", []Update{{Name: "bad\xff\xfe", Kind: "counter", Op: "inc"}},
			Snapshot{Name: "bad\xff\xfe", Kind: "counter", Value: 1}},
	}
}

// histBin is what histUpdates adds to bin i: zeros, small counts and one
// 19-digit count.
func histBin(i int) uint64 {
	switch {
	case i == 7:
		return 1_234_567_890_123_456_789
	case i%5 == 0:
		return 0
	}
	return uint64(i%97 + 1)
}

// histUpdates fills a bins-bin histogram with histBin's counts.
func histUpdates(name string, bins int) []Update {
	var us []Update
	for i := 0; i < bins; i++ {
		if v := histBin(i); v != 0 {
			us = append(us, Update{Name: name, Kind: "hist", Op: "add", Args: []int64{int64(i), int64(v)}, Bins: bins})
		}
	}
	return us
}

// histSnapshot is what histUpdates' histogram reduces to.
func histSnapshot(name string, bins int) Snapshot {
	s := Snapshot{Name: name, Kind: "hist", Bins: make([]uint64, bins)}
	for i := range s.Bins {
		s.Bins[i] = histBin(i)
		s.Total += s.Bins[i]
	}
	return s
}

// getBody fetches url and checks the response is a 200 JSON body sent
// with its Content-Length, not chunked.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET %s: Content-Type %q", url, ct)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) > 0 {
		t.Errorf("GET %s: Content-Length %d, Transfer-Encoding %v for a %d-byte body", url, resp.ContentLength, resp.TransferEncoding, len(body))
	}
	return body
}

// marshalLine is json.Marshal(v) and a newline: what json.Encoder
// writes.
func marshalLine(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSnapshotWire pins the snapshot handlers' bodies to json.Marshal's
// bytes: one structure of each shape through the single and the bulk
// handler, every shape together in one bulk body, and an empty registry.
func TestSnapshotWire(t *testing.T) {
	all, allTS := newTestServer(t)
	var every []Snapshot
	for _, tc := range wireCases() {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t)
			for _, u := range tc.updates {
				_ = s.reg.Apply(&u) // a rejected update still creates its structure
				_ = all.reg.Apply(&u)
			}
			var got Snapshot
			if err := s.reg.Snapshot(tc.want.Name, &snapScratch{}, &got); err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("reduced to %+v (err %v), want %+v", got, err, tc.want)
			}
			single := getBody(t, ts.URL+"/v1/snapshot/"+url.PathEscape(tc.want.Name))
			if want := marshalLine(t, &tc.want); !bytes.Equal(single, want) {
				t.Errorf("single body\n%.300s\njson.Marshal\n%.300s", single, want)
			}
			bulk := getBody(t, ts.URL+"/v1/snapshot")
			if want := marshalLine(t, &BulkSnapshot{Structures: []Snapshot{tc.want}}); !bytes.Equal(bulk, want) {
				t.Errorf("bulk body\n%.300s\njson.Marshal\n%.300s", bulk, want)
			}
		})
		every = append(every, tc.want)
	}
	slices.SortFunc(every, func(a, b Snapshot) int { return strings.Compare(a.Name, b.Name) })
	if got, want := getBody(t, allTS.URL+"/v1/snapshot"), marshalLine(t, &BulkSnapshot{Structures: every}); !bytes.Equal(got, want) {
		t.Errorf("bulk body of every case\n%.300s\njson.Marshal\n%.300s", got, want)
	}
	_, empty := newTestServer(t)
	if got, want := getBody(t, empty.URL+"/v1/snapshot"), marshalLine(t, &BulkSnapshot{Structures: []Snapshot{}}); !bytes.Equal(got, want) {
		t.Errorf("empty bulk body %s, want %s", got, want)
	}
}

// TestSnapshotPoolCap pins the pooled scratch's caps: serving a MaxBins
// histogram, one at a time and in bulk, returns no reduction buffer or
// response body above the caps to the pool.
func TestSnapshotPoolCap(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	u := Update{Name: "big", Kind: "hist", Op: "inc", Args: []int64{MaxBins - 1}, Bins: MaxBins}
	if err := s.reg.Apply(&u); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/snapshot/big", "/v1/snapshot"} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK || w.Body.Len() < 2*MaxBins {
			t.Fatalf("GET %s: HTTP %d, %d bytes", path, w.Code, w.Body.Len())
		}
		sc := s.snapScratch.Get().(*snapScratch)
		if cap(sc.u64) > maxPooledBins || cap(sc.body) > maxPooledBody {
			t.Errorf("after GET %s the pool holds a scratch of %d bins and a %d-byte body, caps %d and %d",
				path, cap(sc.u64), cap(sc.body), maxPooledBins, maxPooledBody)
		}
	}
}

// prefilled is a destination with every field set and spare Bins
// capacity, so decode parity also covers merging into a used Snapshot.
func prefilled() Snapshot {
	bins := make([]uint64, 3, 8)
	copy(bins, []uint64{11, 12, 13})
	return Snapshot{Name: "old", Kind: "minmax", Value: -7, Escalated: true, Bins: bins, Total: 36, N: 5, Min: -9, Max: 99}
}

// checkSnapshotParity decodes data into a Snapshot — with json.Unmarshal,
// which calls UnmarshalJSON, and with UnmarshalJSON directly — and with
// encoding/json into snapshotFields, each from a zero and from a
// prefilled destination. It fails unless all accept or all reject and
// all end with the same value, and reports whether data was accepted.
func checkSnapshotParity(t testing.TB, data []byte) bool {
	t.Helper()
	var accepted bool
	for _, dst := range []func() Snapshot{func() Snapshot { return Snapshot{} }, prefilled} {
		want := dst()
		werr := json.Unmarshal(data, (*snapshotFields)(&want))
		viaJSON, direct := dst(), dst()
		jerr := json.Unmarshal(data, &viaJSON)
		derr := direct.UnmarshalJSON(data)
		if (werr == nil) != (jerr == nil) || (werr == nil) != (derr == nil) {
			t.Fatalf("data %.200q: encoding/json err %v, json.Unmarshal err %v, UnmarshalJSON err %v", data, werr, jerr, derr)
		}
		if !reflect.DeepEqual(viaJSON, want) || !reflect.DeepEqual(direct, want) {
			t.Fatalf("data %.200q:\njson.Unmarshal %+v\nUnmarshalJSON  %+v\nencoding/json  %+v", data, viaJSON, direct, want)
		}
		accepted = werr == nil
	}
	return accepted
}

// snapParityCases are edge cases of encoding/json's acceptance, each with
// its verdict: the server's own layout and near misses of it, which the
// one-pass reader must decline or decode exactly as encoding/json does.
var snapParityCases = []struct {
	name   string
	body   string
	accept bool
}{
	{"counter", `{"name":"c","kind":"counter","value":-42}`, true},
	{"zero counter", `{"name":"c","kind":"counter"}`, true},
	{"refcount", `{"name":"r","kind":"refcount","value":3,"escalated":true}`, true},
	{"hist", `{"name":"h","kind":"hist","bins":[0,1,2,999999999999999999],"total":1000000000000000002}`, true},
	{"minmax", `{"name":"m","kind":"minmax","n":3,"min":-5,"max":5}`, true},
	{"every field", `{"name":"x","kind":"k","value":1,"escalated":true,"bins":[1],"total":1,"n":1,"min":-1,"max":1}`, true},
	{"name only", `{"name":"x","kind":""}`, true},
	{"zeros written", `{"name":"x","kind":"hist","value":0,"bins":[0],"total":0,"n":0,"min":0,"max":0}`, true},
	{"negative zero", `{"name":"x","kind":"minmax","value":-0,"min":-0,"max":-0}`, true},

	{"pretty-printed", "{\n  \"name\": \"h\",\n  \"kind\": \"hist\",\n  \"bins\": [\n    1,\n    2\n  ],\n  \"total\": 3\n}", true},
	{"space before brace", `{"name":"h","kind":"hist","total":3 }`, true},
	{"reordered keys", `{"kind":"hist","name":"h","total":3,"bins":[1,2]}`, true},
	{"upper-case keys", `{"NAME":"h","Kind":"hist","BINS":[1,2],"Total":3,"N":1,"MIN":-1,"Max":2,"Value":4,"ESCALATED":true}`, true},
	{"escaped key", `{"n\u0061me":"h","kind":"hist"}`, true},
	{"unknown key", `{"name":"h","kind":"hist","extra":[1,{"a":null}],"total":3}`, true},
	{"duplicate bins", `{"name":"h","kind":"hist","bins":[1,2,3],"bins":[4]}`, true},
	{"duplicate name", `{"name":"h","name":"i","kind":"hist"}`, true},
	{"missing kind", `{"name":"h","total":3}`, true},
	{"empty object", `{}`, true},
	{"null", `null`, true},
	{"null fields", `{"name":null,"kind":null,"value":null,"escalated":null,"bins":null,"total":null,"n":null,"min":null,"max":null}`, true},
	{"null bin", `{"name":"h","kind":"hist","bins":[1,null,3]}`, true},
	{"empty bins", `{"name":"h","kind":"hist","bins":[]}`, true},
	{"escalated false", `{"name":"r","kind":"refcount","escalated":false}`, true},
	{"escaped name", `{"name":"a\u003cb\u003e\u0026\"","kind":"counter"}`, true},
	{"raw non-ASCII name", "{\"name\":\"h\u00e9\",\"kind\":\"counter\"}", true},
	{"invalid UTF-8 name", "{\"name\":\"bad\xff\",\"kind\":\"counter\"}", true},
	{"DEL in name", "{\"name\":\"a\x7f\",\"kind\":\"counter\"}", true},
	{"19-digit bin", `{"name":"h","kind":"hist","bins":[1234567890123456789]}`, true},
	{"uint64 max total", `{"name":"h","kind":"hist","total":18446744073709551615}`, true},
	{"int64 extremes", `{"name":"m","kind":"minmax","min":-9223372036854775808,"max":9223372036854775807}`, true},

	{"negative bin", `{"name":"h","kind":"hist","bins":[1,-2]}`, false},
	{"negative zero bin", `{"name":"h","kind":"hist","bins":[-0]}`, false},
	{"negative total", `{"name":"h","kind":"hist","total":-1}`, false},
	{"negative n", `{"name":"m","kind":"minmax","n":-1}`, false},
	{"20-digit bin", `{"name":"h","kind":"hist","bins":[12345678901234567890]}`, true},
	{"overflowing bin", `{"name":"h","kind":"hist","bins":[18446744073709551616]}`, false},
	{"overflowing value", `{"name":"c","kind":"counter","value":9223372036854775808}`, false},
	{"fractional bin", `{"name":"h","kind":"hist","bins":[1.5]}`, false},
	{"exponent total", `{"name":"h","kind":"hist","total":1e3}`, false},
	{"quoted value", `{"name":"c","kind":"counter","value":"1"}`, false},
	{"numeric name", `{"name":1,"kind":"counter"}`, false},
	{"string bins", `{"name":"h","kind":"hist","bins":"1,2"}`, false},
	{"escalated string", `{"name":"r","kind":"refcount","escalated":"true"}`, false},
	{"top-level array", `[{"name":"c","kind":"counter"}]`, false},
	{"top-level string", `"c"`, false},

	{"trailing garbage", `{"name":"c","kind":"counter"}x`, false},
	{"trailing newline", "{\"name\":\"c\",\"kind\":\"counter\"}\n", true},
	{"second value", `{"name":"c","kind":"counter"}{}`, false},
	{"truncated", `{"name":"c","kind":"counter"`, false},
	{"truncated bins", `{"name":"h","kind":"hist","bins":[1,2`, false},
	{"truncated after bins", `{"name":"h","kind":"hist","bins":[1,2],"total":3,`, false},
	{"bins trailing comma", `{"name":"h","kind":"hist","bins":[1,2,]}`, false},
	{"bins leading zero", `{"name":"h","kind":"hist","bins":[01]}`, false},
	{"control byte in name", "{\"name\":\"a\x01\",\"kind\":\"counter\"}", false},
	{"empty", ``, false},
}

// TestDecodeSnapshotParity pins (*Snapshot).UnmarshalJSON to
// encoding/json on every edge case, from a zero and a prefilled
// destination.
func TestDecodeSnapshotParity(t *testing.T) {
	for _, tc := range snapParityCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkSnapshotParity(t, []byte(tc.body)); got != tc.accept {
				t.Fatalf("accepted = %v, want %v", got, tc.accept)
			}
		})
	}
}

// TestDecodeSnapshotInPlace pins what a warm reader gets: a body in the
// server's layout decodes in one pass into the destination's own bins
// array, without allocating, when the destination already holds the
// name and enough capacity.
func TestDecodeSnapshotInPlace(t *testing.T) {
	want := benchHist(4096)
	body := appendSnapshot(nil, &want)
	var got Snapshot
	if !got.decodeCanonical(body) || !reflect.DeepEqual(got, want) {
		t.Fatalf("server layout not read in one pass: %+v", got)
	}
	bins := &got.Bins[0]
	if err := json.Unmarshal(body, &got); err != nil || &got.Bins[0] != bins {
		t.Fatalf("second decode (err %v) moved the bins", err)
	}
	if raceEnabled {
		return // race instrumentation allocates
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := got.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("warm UnmarshalJSON allocates %.1f/op, want 0", avg)
	}
}

// snapshotSeeds are the fuzz corpus seed: every wire case in the server's
// layout, pretty-printed and in bulk, and the parity cases.
func snapshotSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, tc := range wireCases() {
		want := tc.want
		if len(want.Bins) > 64 {
			want.Bins = want.Bins[:64]
		}
		seeds = append(seeds, appendSnapshot(nil, &want))
		pretty, err := json.MarshalIndent(&want, "", "  ")
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, pretty)
	}
	for _, tc := range snapParityCases {
		seeds = append(seeds, []byte(tc.body))
	}
	return seeds
}

// FuzzDecodeSnapshot holds (*Snapshot).UnmarshalJSON to encoding/json on
// arbitrary bytes: the same accept/reject verdict and the same value,
// from a zero and from a prefilled destination.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, b := range snapshotSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotParity(t, data)
	})
}

// FuzzAppendSnapshot holds appendSnapshot to json.Encoder: byte-identical
// output, which UnmarshalJSON and encoding/json then decode alike, in one
// pass when the strings need no escapes, and — for valid UTF-8 strings —
// back to the snapshot that was encoded.
func FuzzAppendSnapshot(f *testing.F) {
	f.Add("lat", "hist", int64(0), false, uint16(4096), uint64(1), uint64(0), uint64(0), int64(0), int64(0))
	f.Add("c", "counter", int64(-42), false, uint16(0), uint64(0), uint64(0), uint64(0), int64(0), int64(0))
	f.Add("rc", "refcount", int64(2), true, uint16(0), uint64(0), uint64(0), uint64(0), int64(0), int64(0))
	f.Add("mm", "minmax", int64(0), false, uint16(0), uint64(0), uint64(0), uint64(2), int64(-3), int64(7))
	f.Add("a<b>&\"\\", "h\u00e9\u2028", int64(-9223372036854775808), true, uint16(3), uint64(18446744073709551615), uint64(18446744073709551615), uint64(1), int64(9223372036854775807), int64(-1))
	f.Add("bad\xff\xfe", "\x00", int64(1), false, uint16(1), uint64(7), uint64(1), uint64(0), int64(0), int64(0))
	f.Add("", "", int64(0), false, uint16(0), uint64(0), uint64(0), uint64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, name, kind string, value int64, escalated bool, nbins uint16, seed, total, n uint64, lo, hi int64) {
		s := Snapshot{Name: name, Kind: kind, Value: value, Escalated: escalated, Total: total, N: n, Min: lo, Max: hi}
		if nbins > 0 {
			s.Bins = make([]uint64, int(nbins)%5000)
			for i := range s.Bins {
				// A splitmix step: zeros, small counts and 20-digit ones.
				seed += 0x9e3779b97f4a7c15
				z := (seed ^ seed>>30) * 0xbf58476d1ce4e5b9
				s.Bins[i] = (z ^ z>>27) >> (z % 64)
			}
		}
		got := append(appendSnapshot(nil, &s), '\n')
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendSnapshot\n%.300s\njson.Encoder\n%.300s", got, want.Bytes())
		}
		body := got[:len(got)-1]
		if !checkSnapshotParity(t, body) {
			t.Fatalf("encoded snapshot rejected: %.300s", body)
		}
		if len(s.Bins) == 0 {
			s.Bins = nil // omitted, so never decoded
		}
		var one Snapshot
		if encodesPlain(&s) {
			if !one.decodeCanonical(body) || !reflect.DeepEqual(one, s) {
				t.Fatalf("%.300s not read back in one pass: %+v", body, one)
			}
		}
		if !utf8.ValidString(name) || !utf8.ValidString(kind) {
			return // invalid UTF-8 decodes to U+FFFD, not to itself
		}
		var back Snapshot
		if err := json.Unmarshal(body, &back); err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip (err %v)\n%+v\nwant\n%+v", err, back, s)
		}
	})
}

// encodesPlain reports whether appendSnapshot writes s's strings without
// escapes and its integers in at most 18 digits: the snapshots the
// one-pass reader exists for.
func encodesPlain(s *Snapshot) bool {
	short := func(v int64) bool { return -1e18 < v && v < 1e18 }
	ok := plainString(appendString(nil, s.Name), 0) > 0 && plainString(appendString(nil, s.Kind), 0) > 0 &&
		short(s.Value) && s.Total < 1e18 && s.N < 1e18 && short(s.Min) && short(s.Max)
	for _, v := range s.Bins {
		ok = ok && v < 1e18
	}
	return ok
}
