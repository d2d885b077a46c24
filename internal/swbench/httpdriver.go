package swbench

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/pkg/coupd"
)

// httpDriverSeq distinguishes driver instances that share a process (a
// Measure run builds one driver per rep against the same server); it
// joins a random nonce in the dedup client IDs so seqs never collide.
var httpDriverSeq atomic.Uint64

// HTTPDriver returns a DriverMaker that ships the traffic to a coupd
// server at baseURL as batched POST /v1/batch requests of batch records
// each — the closed-loop load-generator transport. Counter cells map to
// coupd counters "swc<i>", the histogram to one coupd histogram "swh";
// Total is measured as the delta of the server-side reduction across the
// run, so repeated runs against one server (and its accumulated state)
// still validate exactly.
//
// Every worker writes through its own coupd dedup session (a unique
// client ID plus a per-batch seq), so delivery is exactly once: the
// coupd.Client underneath retries transport errors, truncated
// responses, 5xx, and 429 saturation with capped full-jitter
// exponential backoff (429s floored by the server's Retry-After-Ms
// hint), and a retried batch that already landed is answered from the
// server's session table instead of double-applying. Saturation
// throttles the closed loop; faults never lose or duplicate updates.
//
// A nil client gets, on every call of the maker, a fresh transport sized
// for that call's Threads: one keep-alive connection per worker plus
// two. The coupd.Client underneath gets that transport and a 30s retry
// budget per batch — far above any transient saturation or
// injected-fault stretch, far below a hung rig — and then opts, which
// override both.
func HTTPDriver(baseURL string, batch int, client *http.Client, opts ...coupd.ClientOption) DriverMaker {
	return func(c Config, cells int) (Driver, error) {
		if batch < 1 {
			return nil, fmt.Errorf("swbench: http driver needs batch >= 1, got %d", batch)
		}
		hc := client
		if hc == nil {
			hc = &http.Client{
				Transport: &http.Transport{
					MaxIdleConns:        c.Threads + 2,
					MaxIdleConnsPerHost: c.Threads + 2,
				},
				Timeout: 30 * time.Second,
			}
		}
		// Client IDs must be unique across every driver that ever talks to
		// this server — a reused ID would resume a stale session at seq 1
		// and have its fresh batches eaten as duplicates. Random nonce plus
		// an in-process instance counter covers both cross-process and
		// same-process (Measure reps) collisions.
		var nonce [8]byte
		if _, err := cryptorand.Read(nonce[:]); err != nil {
			return nil, fmt.Errorf("swbench: client nonce: %w", err)
		}
		clOpts := append([]coupd.ClientOption{
			coupd.WithHTTPClient(hc),
			coupd.WithRetryBudget(30 * time.Second),
		}, opts...)
		d := &httpDriver{
			base:   strings.TrimRight(baseURL, "/"),
			client: hc,
			cl:     coupd.NewClient(strings.TrimRight(baseURL, "/"), clOpts...),
			idBase: fmt.Sprintf("swb-%s-%d", hex.EncodeToString(nonce[:]), httpDriverSeq.Add(1)),
			batch:  batch,
			kind:   c.Kind,
			bins:   cells,
		}
		if c.Kind == KindHist {
			d.names = []string{"swh"}
		} else {
			d.names = make([]string, cells)
			for i := range d.names {
				d.names[i] = "swc" + strconv.Itoa(i)
			}
		}
		// Baseline the server-side totals so Total reports this run's delta.
		base, err := d.reduce()
		if err != nil {
			return nil, err
		}
		d.baseTotal = base
		return d, nil
	}
}

type httpDriver struct {
	base      string
	client    *http.Client
	cl        *coupd.Client
	idBase    string
	batch     int
	kind      Kind
	names     []string
	bins      int
	baseTotal uint64
}

func (d *httpDriver) Worker(id int) Worker {
	w := &httpWorker{
		d:    d,
		sess: d.cl.Session(d.idBase + "-w" + strconv.Itoa(id)),
	}
	w.buf = make([]coupd.Update, 0, d.batch)
	return w
}

func (d *httpDriver) Total() (uint64, error) {
	now, err := d.reduce()
	if err != nil {
		return 0, err
	}
	return now - d.baseTotal, nil
}

func (d *httpDriver) Close() error {
	d.client.CloseIdleConnections()
	return nil
}

// reduce sums the server-side reductions over the driven structures.
// Structures the server has never seen count zero (first runs start from
// nothing).
func (d *httpDriver) reduce() (uint64, error) {
	var sum uint64
	for _, name := range d.names {
		snap, status, err := d.snapshot(name)
		if err != nil {
			return 0, err
		}
		if status == http.StatusNotFound {
			continue
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("swbench: snapshot %s: HTTP %d", name, status)
		}
		if d.kind == KindHist {
			sum += snap.Total
		} else {
			sum += uint64(snap.Value)
		}
	}
	return sum, nil
}

func (d *httpDriver) snapshot(name string) (coupd.Snapshot, int, error) {
	resp, err := d.client.Get(d.base + "/v1/snapshot/" + name)
	if err != nil {
		return coupd.Snapshot{}, 0, fmt.Errorf("swbench: snapshot %s: %w", name, err)
	}
	defer drainClose(resp.Body)
	var snap coupd.Snapshot
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			return coupd.Snapshot{}, 0, fmt.Errorf("swbench: snapshot %s: %w", name, err)
		}
	}
	return snap, resp.StatusCode, nil
}

// httpWorker buffers one goroutine's updates client-side — its U-state
// buffer — and flushes full batches through its dedup session.
type httpWorker struct {
	d    *httpDriver
	sess *coupd.Session
	buf  []coupd.Update
	err  error
}

func (w *httpWorker) Update(cell int) {
	if w.err != nil {
		return // fail fast; Run surfaces the first error after the loop
	}
	var u coupd.Update
	if w.d.kind == KindHist {
		u = coupd.Update{Name: w.d.names[0], Kind: string(coupd.KindHist), Op: "inc",
			Args: []int64{int64(cell)}, Bins: w.d.bins}
	} else {
		u = coupd.Update{Name: w.d.names[cell], Kind: string(coupd.KindCounter), Op: "inc"}
	}
	w.buf = append(w.buf, u)
	if len(w.buf) >= w.d.batch {
		w.flushBatch()
	}
}

func (w *httpWorker) Read(cell int) uint64 {
	if w.err != nil {
		return 0
	}
	// A read must observe this worker's own prior updates, so deliver the
	// buffered batch first — the U->S downgrade a read forces.
	w.flushBatch()
	name := w.d.names[0]
	if w.d.kind != KindHist {
		name = w.d.names[cell]
	}
	snap, status, err := w.d.snapshot(name)
	if err != nil {
		w.err = err
		return 0
	}
	if status != http.StatusOK {
		w.err = fmt.Errorf("swbench: snapshot %s: HTTP %d", name, status)
		return 0
	}
	if w.d.kind == KindHist {
		if cell < len(snap.Bins) {
			return snap.Bins[cell]
		}
		return 0
	}
	return uint64(snap.Value)
}

func (w *httpWorker) Flush() error {
	if w.err == nil {
		w.flushBatch()
	}
	return w.err
}

// flushBatch delivers the buffered records exactly once through the
// worker's dedup session. The session's Send owns every retry concern —
// transport faults, truncated acks, 429 backoff with jitter — so a
// returned error is final (budget exhausted or the server terminally
// rejected the batch); it is recorded in w.err and the batch dropped,
// the run being already invalid at that point.
func (w *httpWorker) flushBatch() {
	if len(w.buf) == 0 || w.err != nil {
		return
	}
	res, err := w.sess.Send(context.Background(), w.buf)
	if err != nil {
		w.err = fmt.Errorf("swbench: batch: %w", err)
	} else if res.Applied != len(w.buf) {
		w.err = fmt.Errorf("swbench: batch applied %d of %d records", res.Applied, len(w.buf))
	}
	w.buf = w.buf[:0]
}

func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	_ = body.Close()
}
