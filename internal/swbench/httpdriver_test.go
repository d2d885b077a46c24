package swbench

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/pkg/coupd"
)

// TestHTTPDriverClientPerCall pins the nil-client contract: every call of
// the maker builds its own client, sized for that call's Threads, so a
// maker reused across thread counts (Measure's reps, a thread sweep)
// never keeps the first call's pool, and concurrent calls share no
// state.
func TestHTTPDriverClientPerCall(t *testing.T) {
	srv, err := coupd.New()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	build := func(mk DriverMaker, threads int) (*http.Client, error) {
		d, err := mk(Config{Kind: KindCounter, Threads: threads}, 1)
		if err != nil {
			return nil, err
		}
		defer d.Close()
		return d.(*httpDriver).client, nil
	}

	mk := HTTPDriver(ts.URL, 16, nil)
	var clients []*http.Client
	for _, threads := range []int{1, 8} {
		c, err := build(mk, threads)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.Transport.(*http.Transport).MaxIdleConnsPerHost, threads+2; got != want {
			t.Errorf("%d threads: MaxIdleConnsPerHost %d, want %d", threads, got, want)
		}
		clients = append(clients, c)
	}
	if clients[0] == clients[1] {
		t.Error("calls at 1 and 8 threads share one *http.Client")
	}

	// Two concurrent first calls of a fresh maker: under -race, a maker
	// that caches its client races on it here.
	mk = HTTPDriver(ts.URL, 16, nil)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = build(mk, 2+i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
