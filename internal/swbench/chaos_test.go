package swbench

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/pkg/coupd"
)

// chaosSeed picks the fault-injection seed: pinned in short mode (the
// PR-gate smoke must be reproducible byte for byte), randomized in full
// runs (the nightly pass walks fresh fault placements), overridable
// with CHAOS_SEED for replaying a failure.
func chaosSeed(t *testing.T) uint64 {
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		seed, err := strconv.ParseUint(env, 0, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", env, err)
		}
		t.Logf("chaos seed %d (from CHAOS_SEED)", seed)
		return seed
	}
	if testing.Short() {
		t.Log("chaos seed 3_14159 (pinned, -short)")
		return 3_14159
	}
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		t.Fatal(err)
	}
	seed := binary.LittleEndian.Uint64(b[:])
	t.Logf("chaos seed %d (randomized; replay with CHAOS_SEED=%d)", seed, seed)
	return seed
}

func isDrained(err error) bool {
	var re *coupd.RemoteError
	return errors.As(err, &re) && re.Status == http.StatusServiceUnavailable
}

// TestChaosEquivalence is the capstone: 8 concurrent sequenced writers
// push batches through a transport injecting ~20% faults (lost acks,
// dropped sends, resets, truncation, fake 500s) into a server that also
// panics every ~100th apply and stalls every ~50th reduce, while
// snapshot readers race the write storm and a Drain fires mid-run.
// Exactly-once must hold to the update: the final server-side reduction
// equals the client-acked total, exactly.
func TestChaosEquivalence(t *testing.T) {
	seed := chaosSeed(t)

	const (
		writers   = 8
		batchSize = 5
		batches   = 60 // per writer, upper bound — Drain cuts it short
	)

	srv, err := coupd.New(
		coupd.WithApplyHook(faultnet.PanicEvery(101)),
		coupd.WithReduceHook(faultnet.StallEvery(50, 200*time.Microsecond)),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ft := faultnet.New(seed,
		faultnet.WithInner(http.DefaultTransport),
		faultnet.WithRate(0.2),
		faultnet.WithFilter(faultnet.WritesOnly),
		faultnet.WithDelay(500*time.Microsecond),
	)
	cl := coupd.NewClient(ts.URL,
		coupd.WithHTTPClient(ft.Client()),
		coupd.WithBackoff(500*time.Microsecond, 8*time.Millisecond),
		coupd.WithRetryBudget(30*time.Second),
	)

	var (
		ackedTotal atomic.Int64 // updates acked across all writers
		wg         sync.WaitGroup
		stop       = make(chan struct{}) // closed when writers finish
	)

	// Mid-storm Drain: fires once the writers have acked half their
	// planned updates, so the storm is provably in full swing.
	drainAt := int64(writers * batches * batchSize / 2)
	drained := make(chan error, 1)
	go func() {
		for {
			if ackedTotal.Load() >= drainAt {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				drained <- srv.Drain(ctx)
				return
			}
			select {
			case <-stop:
				drained <- fmt.Errorf("writers finished before the drain threshold")
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()

	// Racing readers: hammer the reduce path (single and bulk) with a
	// clean transport until the writers are done. Any non-2xx/404 is a
	// failure — the read plane must stay up through faults and drain.
	readerErr := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(bulk bool) {
			defer wg.Done()
			url := ts.URL + "/v1/snapshot/chaos"
			if bulk {
				url = ts.URL + "/v1/snapshot"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					readerErr <- err
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					readerErr <- fmt.Errorf("reader: %s: HTTP %d", url, resp.StatusCode)
					resp.Body.Close()
					return
				}
				json.NewDecoder(resp.Body).Decode(new(any))
				resp.Body.Close()
			}
		}(r == 0)
	}

	writerWg := sync.WaitGroup{}
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			sess := cl.Session("chaos-w" + strconv.Itoa(w))
			batch := make([]coupd.Update, batchSize)
			for i := range batch {
				batch[i] = coupd.Update{Name: "chaos", Kind: "counter", Op: "inc"}
			}
			for b := 0; b < batches; b++ {
				res, err := sess.Send(context.Background(), batch)
				if err != nil {
					if isDrained(err) {
						return // cleanly rejected, unacked: not counted
					}
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
				if res.Applied != batchSize {
					t.Errorf("writer %d batch %d: acked %d of %d records", w, b, res.Applied, batchSize)
					return
				}
				ackedTotal.Add(int64(res.Applied))
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The equivalence: server-side reduction == client-acked total. Not
	// approximately — exactly, or exactly-once is broken somewhere.
	resp, err := http.Get(ts.URL + "/v1/snapshot/chaos")
	if err != nil {
		t.Fatal(err)
	}
	var snap coupd.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	acked := ackedTotal.Load()
	if snap.Value != acked {
		t.Errorf("server total %d != client-acked total %d (seed %d)", snap.Value, acked, seed)
	}
	t.Logf("equivalence: %d updates acked == %d applied; faultnet: %s", acked, snap.Value, ft.Stats())

	// The run must actually have been a storm: >= 10% of write requests
	// faulted (rate is 20%; 10% is a generous statistical floor), and the
	// drain fired mid-run (some writer was cut short).
	if reqs, inj := ft.Requests(), ft.Injected(); inj*10 < reqs {
		t.Errorf("only %d/%d requests faulted, want >= 10%%", inj, reqs)
	}
	if acked >= writers*batches*batchSize {
		t.Error("drain never interrupted the storm: every planned batch was acked")
	}

	m := srv.Metrics()
	replays, panics := m.Counter("coupd_replays_total", "").Value(), m.Counter("coupd_panics_total", "").Value()
	if replays == 0 {
		t.Error("no replays recorded — the fault mix never forced a retry of a delivered batch?")
	}
	if panics == 0 {
		t.Error("no recovered panics — the apply hook never fired?")
	}
	t.Logf("server telemetry: sessions=%d dedup_hits=%d replays=%d panics=%d updates=%d",
		m.Gauge("coupd_sessions", "", nil).Value(), m.Counter("coupd_dedup_hits_total", "").Value(),
		replays, panics, m.Counter("coupd_updates_total", "").Value())
}

// TestHTTPDriverChaosEquivalence runs the stock swbench closed loop —
// whose Run() already asserts total == threads*ops exactly — with the
// chaos transport underneath the HTTP driver: the benchmark rig itself
// is fault-tolerant now, losing and duplicating nothing.
func TestHTTPDriverChaosEquivalence(t *testing.T) {
	seed := chaosSeed(t)
	srv, err := coupd.New()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ft := faultnet.New(seed,
		faultnet.WithInner(http.DefaultTransport),
		faultnet.WithRate(0.15),
		faultnet.WithFilter(faultnet.WritesOnly),
		faultnet.WithDelay(500*time.Microsecond),
	)
	res, err := Run(Config{
		Kind:    KindCounter,
		Threads: 8,
		Ops:     400,
		Cells:   4,
		Seed:    seed,
		NewDriver: HTTPDriver(ts.URL, 16, ft.Client(),
			coupd.WithBackoff(500*time.Microsecond, 8*time.Millisecond)),
	})
	if err != nil {
		t.Fatalf("chaos run: %v (seed %d, faultnet: %s)", err, seed, ft.Stats())
	}
	if res.Total != 8*400 {
		t.Errorf("total %d != %d (seed %d)", res.Total, 8*400, seed)
	}
	if ft.Injected() == 0 {
		t.Error("no faults injected — the chaos transport never fired")
	}
	t.Logf("driver chaos run: total=%d, faultnet: %s", res.Total, ft.Stats())
}
