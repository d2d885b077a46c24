package coup

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

func testHeader() StoreHeader {
	return StoreHeader{Namespace: "exp1", Fingerprint: "fp-abc", Shard: 0, ShardCount: 2}
}

func testRecord(key string, cycles uint64) StoreRecord {
	return StoreRecord{
		Key: key,
		Stats: Stats{
			Protocol: "MEUSI", Workload: "hist", Cores: 4,
			Cycles: cycles, AMAT: 3.25,
		},
	}
}

// TestResultStoreRoundTrip pins the journal's basic contract: records
// put before Close come back exactly — stats byte-identical — on reopen
// with the same header.
func TestResultStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	st, err := OpenResultStore(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	want := []StoreRecord{
		testRecord("a", 100),
		testRecord("b", 200),
		{Key: "c", Err: "validation failed", Stats: Stats{Cycles: 7}},
		{Key: "d", Err: "coup: sweep run panicked: boom", Panicked: true},
	}
	for _, rec := range want {
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenResultStore(path, testHeader())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if st2.Len() != len(want) {
		t.Fatalf("reopened store holds %d records, want %d", st2.Len(), len(want))
	}
	for _, rec := range want {
		got, ok := st2.Get(rec.Key)
		if !ok {
			t.Fatalf("record %s lost on reopen", rec.Key)
		}
		if got != rec {
			t.Errorf("record %s changed across reopen:\ngot  %+v\nwant %+v", rec.Key, got, rec)
		}
	}
}

// TestResultStoreHeaderMismatch pins the guard against mixing stores:
// reopening under a different namespace, fingerprint or shard layout is
// a typed error, never a silent resume.
func TestResultStoreHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	st, err := OpenResultStore(path, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	for _, h := range []StoreHeader{
		{Namespace: "exp2", Fingerprint: "fp-abc", ShardCount: 2},
		{Namespace: "exp1", Fingerprint: "fp-OTHER", ShardCount: 2},
		{Namespace: "exp1", Fingerprint: "fp-abc", Shard: 1, ShardCount: 2},
		{Namespace: "exp1", Fingerprint: "fp-abc", ShardCount: 4},
	} {
		if _, err := OpenResultStore(path, h); !errors.Is(err, ErrStoreMismatch) {
			t.Errorf("reopen with %+v: err=%v, want ErrStoreMismatch", h, err)
		}
	}
}

// TestResultStoreTornTail pins crash tolerance: a partial final line (a
// killed writer's torn append) is dropped on reopen, every record before
// it survives, and the store keeps working — including across a second
// reopen, proving the truncation repaired the file on disk.
func TestResultStoreTornTail(t *testing.T) {
	for _, tail := range []string{
		`{"key":"torn","st`,        // cut mid-record, no newline
		`{"key":"torn","st` + "\n", // cut mid-record, with newline
		"\x00\x01garbage",          // not JSON at all
	} {
		path := filepath.Join(t.TempDir(), "s.json")
		st, err := OpenResultStore(path, testHeader())
		if err != nil {
			t.Fatal(err)
		}
		st.Put(testRecord("a", 100))
		st.Put(testRecord("b", 200))
		st.Close()

		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(tail)
		f.Close()

		st2, err := OpenResultStore(path, testHeader())
		if err != nil {
			t.Fatalf("tail %q: reopen: %v", tail, err)
		}
		if st2.Len() != 2 {
			t.Fatalf("tail %q: %d records after torn reopen, want 2", tail, st2.Len())
		}
		if _, ok := st2.Get("torn"); ok {
			t.Errorf("tail %q: torn record resurrected", tail)
		}
		if err := st2.Put(testRecord("c", 300)); err != nil {
			t.Fatalf("tail %q: put after repair: %v", tail, err)
		}
		st2.Close()

		st3, err := OpenResultStore(path, testHeader())
		if err != nil {
			t.Fatalf("tail %q: second reopen: %v", tail, err)
		}
		if st3.Len() != 3 {
			t.Errorf("tail %q: %d records after repair+append, want 3", tail, st3.Len())
		}
		st3.Close()
	}
}

// TestReadResultStore covers the merge-side reader: same tolerance, no
// repair, header passthrough.
func TestReadResultStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	st, _ := OpenResultStore(path, testHeader())
	st.Put(testRecord("a", 100))
	st.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString(`{"key":"torn`)
	f.Close()
	before, _ := os.Stat(path)

	h, recs, err := ReadResultStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if h != testHeader() {
		t.Errorf("header %+v, want %+v", h, testHeader())
	}
	if len(recs) != 1 || recs[0].Key != "a" {
		t.Errorf("records %+v, want just a", recs)
	}
	after, _ := os.Stat(path)
	if before.Size() != after.Size() {
		t.Error("read-only load modified the file")
	}
}

// FuzzReplayStore holds the journal replay to its crash-tolerance
// contract on arbitrary bytes: it never panics; a bad header is a typed
// ErrStoreMismatch; a good replay stops at a line boundary inside the
// data; and replaying just the bytes it accepted gives the same header,
// records and offset, so the truncation OpenResultStore applies loses
// nothing.
func FuzzReplayStore(f *testing.F) {
	var journal []byte
	for _, v := range []any{
		testHeader(),
		testRecord("a", 100),
		testRecord("b", 200),
		StoreRecord{Key: "c", Err: "validation failed", Stats: Stats{Cycles: 7}},
		StoreRecord{Key: "d", Err: "coup: sweep run panicked: boom", Panicked: true},
	} {
		line, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	f.Add(journal)
	for _, tail := range []string{
		`{"key":"torn","st`,
		`{"key":"torn","st` + "\n",
		"\x00\x01garbage",
		`{"key":"torn`,
	} {
		f.Add(append(bytes.Clone(journal), tail...))
	}
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte("not a header\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, recs, good, err := replayStore(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrStoreMismatch) {
				t.Fatalf("replay error %v does not wrap ErrStoreMismatch", err)
			}
			return
		}
		if good <= 0 || good > int64(len(data)) || data[good-1] != '\n' {
			t.Fatalf("replay accepted %d of %d bytes, not ending at a line boundary", good, len(data))
		}
		h2, recs2, good2, err := replayStore(bytes.NewReader(data[:good]))
		if err != nil {
			t.Fatalf("replaying the accepted %d bytes: %v", good, err)
		}
		if h2 != h || good2 != good || !maps.Equal(recs2, recs) {
			t.Fatalf("replaying the accepted bytes changed the result: header %+v vs %+v, offset %d vs %d, %d vs %d records",
				h2, h, good2, good, len(recs2), len(recs))
		}
	})
}
