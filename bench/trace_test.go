package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestSelfTimesWithNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a.x", Start: 15, End: 25},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60},     // overlaps a
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // outlives root
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 40, 2: 20, 3: 10, 4: 30, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	// Properly nested layers add up to the root exactly.
	nested := []span{
		{ID: 1, Name: "coup.spec", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Name: "sim.build", Start: 5, End: 100},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 100, End: 900},
		{ID: 4, Parent: 1, Name: "sim.release", Start: 950, End: 960},
	}
	lt := layerTotals(nested)
	var sum int64
	for name, l := range lt {
		if name != "coup.spec" {
			sum += l.total
		}
	}
	if spec := lt["coup.spec"]; sum+spec.self != spec.total || spec.self != 95 {
		t.Fatalf("layers %d + unattributed %d != spec %d", sum, spec.self, spec.total)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	sp := r.open("x", 0, 0)
	sp.close()
	if sp.id() != 0 {
		t.Fatalf("nil recorder gave span id %d", sp.id())
	}
}

// A read that stalls the server must show in the latency of the reads
// due while it stalled, since each is timed from when it was due.
func TestOpenLoopStallInflatesLaterReads(t *testing.T) {
	const stall = 60 * time.Millisecond
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 3 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	get := func() error {
		resp, err := http.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	}
	start := time.Now()
	lat, lag, failed := openLoop(start, start.Add(100*time.Millisecond), 10*time.Millisecond, get)
	if failed != 0 || len(lat) != 10 || len(lag) != 10 {
		t.Fatalf("got %d latencies, %d lags, %d failed; want 10, 10, 0", len(lat), len(lag), failed)
	}
	// Read 2 (due at 20ms) holds the only client until ~80ms, so read k
	// (due at 10k ms) cannot finish before then.
	for k := 3; k < 8; k++ {
		due := time.Duration(k) * 10 * time.Millisecond
		if min := 20*time.Millisecond + stall - due; lat[k] < min {
			t.Errorf("read %d: latency %v, want at least %v after the stall", k, lat[k], min)
		}
		if lag[k] < 20*time.Millisecond+stall-due {
			t.Errorf("read %d: issued %v late, want at least %v", k, lag[k], 20*time.Millisecond+stall-due)
		}
	}
}
