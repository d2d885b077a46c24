package obs

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
)

func TestRingRecordDump(t *testing.T) {
	r := NewRing(128)
	r.Record(EvSpanBegin, 7, 100, 0)
	r.Record(EvBatchApply, 7, 64, 0)
	r.Record(EvReduce, 7, 12345, 0)
	r.Record(EvSpanEnd, 7, 100, 0)

	events := r.Dump()
	if len(events) != 4 {
		t.Fatalf("Dump returned %d events, want 4", len(events))
	}
	wantKinds := []EventKind{EvSpanBegin, EvBatchApply, EvReduce, EvSpanEnd}
	var last int64 = -1
	for i, e := range events {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
		if e.ID != 7 {
			t.Errorf("event %d id = %d, want 7", i, e.ID)
		}
		if e.TimeNs < last {
			t.Errorf("event %d out of time order: %d after %d", i, e.TimeNs, last)
		}
		last = e.TimeNs
	}
	if events[1].Arg1 != 64 || events[2].Arg1 != 12345 {
		t.Errorf("args not preserved: %+v", events[1:3])
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRing(8) // 8 slots per shard
	total := 8 * r.Shards() * 4
	for i := 0; i < total; i++ {
		r.Record(EvBatchApply, 0, uint64(i), 0)
	}
	events := r.Dump()
	if len(events) == 0 {
		t.Fatal("Dump returned nothing after wrap")
	}
	if max := 8 * r.Shards(); len(events) > max {
		t.Fatalf("Dump returned %d events, capacity is %d", len(events), max)
	}
	// Every surviving record must be from the newest writes through its
	// shard: seq within the last 8 of that shard's cursor.
	for _, e := range events {
		if e.Arg1 < uint64(total)-uint64(8*r.Shards()*2) {
			t.Errorf("stale record survived wrap: %+v", e)
		}
	}
}

func TestTraceBinaryRoundTrip(t *testing.T) {
	r := NewRing(64)
	r.Record(EvSpanBegin, 1, 11, 22)
	r.Record(EvReduce, 2, 33, 44)
	r.Record(EvSpanEnd, 1, 11, 55)

	var buf bytes.Buffer
	wrote, err := r.DumpTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrote) != 3 {
		t.Fatalf("DumpTo wrote %d events, want 3", len(wrote))
	}
	if want := 16 + 3*traceRecBytes; buf.Len() != want {
		t.Errorf("trace stream is %d bytes, want %d", buf.Len(), want)
	}

	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(wrote) {
		t.Fatalf("ReadTrace returned %d events, want %d", len(back), len(wrote))
	}
	for i := range back {
		if back[i] != wrote[i] {
			t.Errorf("event %d round-trip mismatch:\n wrote %+v\n read  %+v", i, wrote[i], back[i])
		}
	}
}

func TestReadTraceRejectsBadMagic(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("NOTATRACEFILE...."))); err == nil {
		t.Error("ReadTrace accepted bad magic")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("ReadTrace accepted empty stream")
	}
}

// traceHeader is a COUPTRC header counting n records.
func traceHeader(n uint64) []byte {
	hdr := make([]byte, 16)
	copy(hdr, traceMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], n)
	return hdr
}

// TestReadTraceShortStream pins the error for a stream holding fewer
// records than its header counts, however large the count: the count
// must not size an allocation before the records arrive.
func TestReadTraceShortStream(t *testing.T) {
	rec := make([]byte, traceRecBytes)
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"2^60 records claimed, none present", traceHeader(1 << 60)},
		{"2^32 records claimed, one present", append(traceHeader(1<<32), rec...)},
		{"max records claimed, none present", traceHeader(^uint64(0))},
		{"two records claimed, one present", append(traceHeader(2), rec...)},
		{"one record claimed, half present", append(traceHeader(1), rec[:traceRecBytes/2]...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if events, err := ReadTrace(bytes.NewReader(tc.stream)); err == nil {
				t.Fatalf("ReadTrace accepted a short stream, returning %d events", len(events))
			}
		})
	}
}

// FuzzReadTrace holds ReadTrace on arbitrary bytes to its contract: it
// never panics, it fails on a stream shorter than its header counts, and
// on success it returns exactly the header's count of events, which
// WriteTrace writes back to the bytes they were read from.
func FuzzReadTrace(f *testing.F) {
	r := NewRing(64)
	r.Record(EvSpanBegin, 1, 11, 22)
	r.Record(EvReduce, 2, 33, 44)
	r.Record(EvSpanEnd, 1, 11, 55)
	var buf bytes.Buffer
	if _, err := r.DumpTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-1])
	f.Add(traceHeader(0))
	f.Add(traceHeader(1 << 60))
	f.Add([]byte("NOTATRACEFILE...."))
	f.Fuzz(func(t *testing.T, stream []byte) {
		events, err := ReadTrace(bytes.NewReader(stream))
		if len(stream) < 16 || [8]byte(stream[:8]) != traceMagic {
			if err == nil {
				t.Fatal("ReadTrace accepted a stream without a COUPTRC header")
			}
			return
		}
		n := binary.LittleEndian.Uint64(stream[8:16])
		if held := uint64(len(stream)-16) / traceRecBytes; held < n {
			if err == nil {
				t.Fatalf("header counts %d records, stream holds %d: accepted", n, held)
			}
			return
		}
		if err != nil {
			t.Fatalf("complete stream of %d records rejected: %v", n, err)
		}
		if uint64(len(events)) != n {
			t.Fatalf("header counts %d records, ReadTrace returned %d", n, len(events))
		}
		var back bytes.Buffer
		if err := WriteTrace(&back, events); err != nil {
			t.Fatal(err)
		}
		if read := stream[:16+n*traceRecBytes]; !bytes.Equal(back.Bytes(), read) {
			t.Fatalf("WriteTrace(ReadTrace(s)) != s:\n%x\n%x", back.Bytes(), read)
		}
	})
}

// TestRingConcurrent hammers the ring from many goroutines while dumping,
// for -race and for the torn-read guarantee: every returned event must
// be internally consistent (args echo the kind's contract below).
func TestRingConcurrent(t *testing.T) {
	r := NewRing(256)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// arg2 = arg1 + 1: the invariant a torn read would break.
				v := uint64(w*perWorker + i)
				r.Record(EvBatchApply, uint16(w), v, v+1)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Dump() {
				if e.Arg2 != e.Arg1+1 {
					t.Errorf("torn record surfaced: %+v", e)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done

	for _, e := range r.Dump() {
		if e.Arg2 != e.Arg1+1 {
			t.Errorf("torn record in final dump: %+v", e)
		}
	}
}
