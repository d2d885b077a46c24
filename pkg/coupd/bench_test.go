package coupd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// benchBatch is the batch every coupd batch benchmark sends: 256 records
// cycling through the four kinds, the shape of a coupd-mixed batch in
// the repository benchmark. An empty client makes it a bare batch.
func benchBatch(client string, seq uint64) BatchRequest {
	req := BatchRequest{Client: client, Seq: seq}
	for i := 0; i < 64; i++ {
		req.Updates = append(req.Updates,
			Update{Name: "hits", Kind: "counter", Op: "inc"},
			Update{Name: "lat", Kind: "hist", Op: "inc", Args: []int64{int64(i % 512)}, Bins: 512},
			Update{Name: "span", Kind: "minmax", Op: "observe", Args: []int64{int64(i)}},
			Update{Name: "refs", Kind: "refcount", Op: "inc"},
		)
	}
	return req
}

// BenchmarkCoupdBatch measures the full server-side batch path — HTTP
// routing, pooled decode, per-record registry fan-in — for a 256-record
// mixed batch through ServeHTTP (no network). Tracked in
// BENCH_baseline.json: a decode-path or fan-in regression shows up as
// allocs/op or ns/op drift.
func BenchmarkCoupdBatch(b *testing.B) {
	s, err := New(WithMaxInFlight(64))
	if err != nil {
		b.Fatal(err)
	}
	req := benchBatch("", 0)
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		r := httptest.NewRequest("POST", "/v1/batch", rd)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", w.Code, w.Body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(req.Updates)*b.N)/b.Elapsed().Seconds(), "updates/s")
	if got := s.updates.Value(); got != int64(len(req.Updates)*b.N) {
		b.Fatalf("server reduced %d updates, applied %d", got, len(req.Updates)*b.N)
	}
}

// BenchmarkCoupdBatchSequenced is BenchmarkCoupdBatch with the
// exactly-once plane on: the same 256-record mixed batch, now carrying
// client+seq through the dedup session table and the validate-then-apply
// double pass. The delta against BenchmarkCoupdBatch prices the
// exactly-once upgrade; tracked in BENCH_baseline.json like its bare
// sibling. The seq is patched into the pre-marshaled body in place, so
// the loop measures the server, not the encoder.
func BenchmarkCoupdBatchSequenced(b *testing.B) {
	s, err := New(WithMaxInFlight(64))
	if err != nil {
		b.Fatal(err)
	}
	req := benchBatch("bench", 100_000_000_000)
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	// The placeholder seq is 12 digits; successive seqs stay 12 digits, so
	// each iteration overwrites it in place (no re-marshal, no alloc).
	pos := bytes.Index(body, []byte("100000000000"))
	if pos < 0 {
		b.Fatal("seq placeholder not found in marshaled body")
	}
	// Seq starts at 1: an empty seq-1 batch opens the session, which the
	// timed seqs then continue.
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/batch", strings.NewReader(`{"updates":[],"client":"bench","seq":1}`)))
	if w.Code != http.StatusOK {
		b.Fatalf("opening seq 1: HTTP %d: %s", w.Code, w.Body)
	}
	var seqBuf [12]byte
	rd := bytes.NewReader(body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(body[pos:pos+12], strconv.AppendInt(seqBuf[:0], 100_000_000_001+int64(i), 10))
		rd.Reset(body)
		r := httptest.NewRequest("POST", "/v1/batch", rd)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", w.Code, w.Body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(req.Updates)*b.N)/b.Elapsed().Seconds(), "updates/s")
	if got := s.updates.Value(); got != int64(len(req.Updates)*b.N) {
		b.Fatalf("server reduced %d updates, applied %d", got, len(req.Updates)*b.N)
	}
	if got := s.sessions.dedupHits.Value(); got != 0 {
		b.Fatalf("%d dedup hits in a fresh-seq benchmark (seq patching broken)", got)
	}
}

// BenchmarkDecodeBatch is the server's decode stage alone: the
// sequenced bench batch's body through the pooled decoder.
func BenchmarkDecodeBatch(b *testing.B) {
	req := benchBatch("bench", 100_000_000_000)
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	var d batchDecoder
	if _, err := d.decodeBatch(body); err != nil { // size the pooled buffers
		b.Fatal(err)
	}
	d.reset()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := d.decodeBatch(body)
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Updates) != len(req.Updates) {
			b.Fatalf("decoded %d records, want %d", len(got.Updates), len(req.Updates))
		}
		d.reset()
	}
}

// BenchmarkAppendBatch is the client's encode stage alone: the
// sequenced bench batch appended into a reused buffer.
func BenchmarkAppendBatch(b *testing.B) {
	req := benchBatch("bench", 100_000_000_000)
	buf := appendBatch(nil, &req)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendBatch(buf[:0], &req)
	}
}

// BenchmarkCoupdSnapshot measures reduce-on-read for a 512-bin histogram
// through the handler (pooled scratch, no per-request allocation of the
// reduction buffers).
func BenchmarkCoupdSnapshot(b *testing.B) {
	s, err := New()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		u := Update{Name: "lat", Kind: "hist", Op: "inc", Args: []int64{int64(i)}, Bins: 512}
		if err := s.reg.Apply(&u); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest("GET", "/v1/snapshot/lat", nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", w.Code, w.Body)
		}
	}
}

// BenchmarkRegistryApply isolates the registry fan-in (no HTTP, no
// decode): one pre-parsed counter update through Apply.
func BenchmarkRegistryApply(b *testing.B) {
	g := NewRegistry()
	u := Update{Name: "hits", Kind: "counter", Op: "inc"}
	if err := g.Apply(&u); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Apply(&u); err != nil {
			b.Fatal(err)
		}
	}
	if got := fmt.Sprint(g.Len()); got != "1" {
		b.Fatalf("registry grew to %s structures", got)
	}
}
