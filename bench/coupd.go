package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/pkg/coupd"
	"repro/pkg/obs"
)

// coupdWorkload serves one in-process coupd.Server on a loopback socket
// to a closed-loop writer and an open-loop reader.
type coupdWorkload struct {
	name string
	why  string
	// batches pre-generated batches of groups×4 records each, cycled by
	// the writer: per group one counter inc over counters Zipf-chosen
	// names, one inc of a Zipf-chosen bin of a bins-bin histogram, one
	// minmax observe and one refcount inc.
	batches, groups, counters, bins int
	// readsPerSec is the open-loop reader's rate.
	readsPerSec int
}

var coupdMixed = coupdWorkload{
	name:        "coupd-mixed",
	why:         "closed-loop batch writes beside open-loop dashboard reads over a real socket: the only workload through pkg/coupd, pkg/obs and net/http",
	batches:     64,
	groups:      64,
	counters:    64,
	bins:        4096,
	readsPerSec: 200,
}

// Structure names the batches write.
const (
	histName     = "lat"
	minmaxName   = "lat_range"
	refcountName = "handles"
	writerID     = "bench-writer"
)

func counterName(i int) string { return fmt.Sprintf("c%02d", i) }

func (w coupdWorkload) workload() workload { return workload{w.name, w.why, w.run} }

// batchPlan is one pre-generated batch and what it adds to each
// structure once acknowledged.
type batchPlan struct {
	updates  []coupd.Update
	counters []int64
	bins     []uint64
	min, max int64
}

func (w coupdWorkload) plan(seed uint64) []batchPlan {
	rng := rand.New(rand.NewPCG(seed, 0x636f757064))
	cz := rand.NewZipf(rng, 1.07, 1, uint64(w.counters-1))
	hz := rand.NewZipf(rng, 1.07, 1, uint64(w.bins-1))
	names := make([]string, w.counters)
	for i := range names {
		names[i] = counterName(i)
	}
	plans := make([]batchPlan, w.batches)
	for b := range plans {
		p := batchPlan{counters: make([]int64, w.counters), bins: make([]uint64, w.bins), min: 1 << 62, max: -1}
		for g := 0; g < w.groups; g++ {
			c, bin, v := int(cz.Uint64()), int(hz.Uint64()), rng.Int64N(1_000_000)
			p.counters[c]++
			p.bins[bin]++
			p.min, p.max = min(p.min, v), max(p.max, v)
			p.updates = append(p.updates,
				coupd.Update{Name: names[c], Kind: "counter", Op: "inc"},
				coupd.Update{Name: histName, Kind: "hist", Op: "inc", Args: []int64{int64(bin)}, Bins: w.bins},
				coupd.Update{Name: minmaxName, Kind: "minmax", Op: "observe", Args: []int64{v}},
				coupd.Update{Name: refcountName, Kind: "refcount", Op: "inc"},
			)
		}
		plans[b] = p
	}
	return plans
}

// rig is one server, its listener and the client side.
type rig struct {
	srv      *coupd.Server
	hs       *http.Server
	serveErr chan error
	tr       *http.Transport
	hc       *http.Client
	sess     *coupd.Session
	base     string
	acked    []int // acknowledged sends per plan index
	next     int   // plan index of the writer's next batch
}

// startRig serves a fresh coupd.Server on 127.0.0.1. With rec non-nil
// the transport and the handler carry spans across the socket.
func startRig(rec *recorder, plans int) (*rig, error) {
	srv, err := coupd.New()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2, // one writer and one reader
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	var rt http.RoundTripper = tr
	if rec != nil {
		h = tracedHandler{rec, srv}
		rt = tracedTransport{rec, tr}
	}
	r := &rig{
		srv:      srv,
		hs:       &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		serveErr: make(chan error, 1),
		tr:       tr,
		hc:       &http.Client{Transport: rt},
		base:     "http://" + ln.Addr().String(),
		acked:    make([]int, plans),
	}
	go func() { r.serveErr <- r.hs.Serve(ln) }()
	r.sess = coupd.NewClient(r.base, coupd.WithHTTPClient(r.hc)).Session(writerID)
	return r, nil
}

// close shuts the server down and waits for it to stop serving.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.tr.CloseIdleConnections()
	return err
}

// send delivers the writer's next batch and returns how many POSTs it
// took.
func (r *rig) send(ctx context.Context, plans []batchPlan) (int, error) {
	i := r.next % len(plans)
	res, err := r.sess.Send(ctx, plans[i].updates)
	if err != nil {
		return 0, err
	}
	if res.Applied != len(plans[i].updates) || res.Deduped {
		return res.Attempts, fmt.Errorf("batch seq %d: applied %d of %d records (deduped %v)", res.Seq, res.Applied, len(plans[i].updates), res.Deduped)
	}
	r.acked[i]++
	r.next++
	return res.Attempts, nil
}

// read fetches the histogram snapshot a dashboard polls.
func (r *rig) read(ctx context.Context, bins int) (coupd.Snapshot, error) {
	var snap coupd.Snapshot
	if err := r.get(ctx, "/v1/snapshot/"+histName, &snap); err != nil {
		return snap, err
	}
	if snap.Kind != "hist" || len(snap.Bins) != bins {
		return snap, fmt.Errorf("snapshot %q: kind %q with %d bins, want hist with %d", histName, snap.Kind, len(snap.Bins), bins)
	}
	return snap, nil
}

func (r *rig) get(ctx context.Context, path string, out any) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// warmRig sends every planned batch once and reads a few snapshots.
func (w coupdWorkload) warmRig(r *rig, plans []batchPlan) error {
	ctx := context.Background()
	for range plans {
		if _, err := r.send(ctx, plans); err != nil {
			return err
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := r.read(ctx, w.bins); err != nil {
			return err
		}
	}
	return nil
}

// window is what one measured window saw.
type window struct {
	batchLat []time.Duration
	attempts int
	readLat  []time.Duration // from when each read was due
	readLag  []time.Duration // how late each read was issued
	failed   int
	errs     []error
}

// measure runs the writer and the reader for seconds. With rec non-nil
// every send and read is a traced request.
func (w coupdWorkload) measure(r *rig, plans []batchPlan, seconds float64, rec *recorder) window {
	var win window
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var readErrs []error
	var readFailed int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastTotal := uint64(0)
		interval := time.Second / time.Duration(w.readsPerSec)
		win.readLat, win.readLag, readFailed = openLoop(start, deadline, interval, func() error {
			sp := rec.open("coupd.client.read", 0, 0)
			defer sp.close()
			snap, err := r.read(withSpan(context.Background(), sp), w.bins)
			if err == nil && snap.Total < lastTotal {
				err = fmt.Errorf("histogram total fell from %d to %d", lastTotal, snap.Total)
			}
			if err != nil {
				readErrs = append(readErrs, err)
				return err
			}
			lastTotal = snap.Total
			return nil
		})
	}()
	for time.Now().Before(deadline) {
		sp := rec.open("coupd.client.send", 0, 0)
		t0 := time.Now()
		n, err := r.send(withSpan(context.Background(), sp), plans)
		d := time.Since(t0)
		sp.close()
		win.attempts += n
		if err != nil {
			win.failed++
			win.errs = append(win.errs, err)
			continue
		}
		win.batchLat = append(win.batchLat, d)
	}
	wg.Wait()
	win.failed += readFailed
	win.errs = append(win.errs, readErrs...)
	return win
}

// openLoop calls do once per interval from start until deadline, each
// call timed from when it was due: a stall delays the calls behind it,
// and their latency shows the wait. It returns each successful call's
// latency, how late each call was issued, and the failure count.
func openLoop(start, deadline time.Time, interval time.Duration, do func() error) (lat, lag []time.Duration, failed int) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			return lat, lag, failed
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag = append(lag, time.Since(due))
		if err := do(); err != nil {
			failed++
			continue
		}
		lat = append(lat, time.Since(due))
	}
}

// batchRate is acknowledged records per second at the fastest decile
// of batch round trips: the writer's loop is closed, so one batch at a
// time is its whole throughput.
func batchRate(lat []time.Duration, records int) float64 {
	return float64(records) / fastDecile(secondsOf(lat))
}

func (w coupdWorkload) run(cfg runConfig) *result {
	res := &result{}
	plans := w.plan(cfg.seed)
	records := len(plans[0].updates)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// Set-up: server, listener, connections, and one warm-up pass.
	var r *rig
	setups := make([]float64, 0, setupReps)
	for k := 0; k < setupReps; k++ {
		if r != nil {
			if err := r.close(); err != nil {
				res.problem("close server: %v", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = startRig(rec, len(plans)); err != nil {
			res.problem("start server: %v", err)
			return res
		}
		if err := w.warmRig(r, plans); err != nil {
			res.attempted++
			res.failed++
			res.problem("warm-up: %v", err)
			_ = r.close() // the warm-up error is the one to report
			return res
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if err := r.close(); err != nil {
			res.problem("close server: %v", err)
		}
	}()
	res.attempted += len(plans) + 20

	if cfg.trace {
		w.traced(cfg, r, plans, rec, res)
		w.verify(r, plans, res)
		return res
	}
	win := w.measure(r, plans, cfg.seconds, nil)
	w.count(win, res)
	w.verify(r, plans, res)
	res.add(metric{"setup_s", median(setups), "s"})
	ops := batchRate(win.batchLat, records)
	res.add(metric{"ops_per_s", ops, "ops/s"}, metric{"updates_per_s", ops, "updates/s"})
	res.add(summarize(win.batchLat).metrics("batch")...)
	res.add(summarize(win.readLat).metrics("read")...)
	res.add(metric{"read_lag_tail_ms", summarize(win.readLag).tail, "ms"})
	res.add(metric{"failed_ratio", float64(res.failed) / float64(res.attempted), "ratio"})
	return res
}

// count adds a window's sends and reads to the run's totals.
func (w coupdWorkload) count(win window, res *result) {
	res.attempted += len(win.batchLat) + len(win.readLat) + win.failed
	res.failed += win.failed
	for _, err := range win.errs {
		res.problem("%v", err)
	}
}

// verify checks the server's reduced state against everything the
// client saw acknowledged: every counter, every histogram bin, the
// minmax count and extremes, the refcount, and the server's own count
// of applied records.
func (w coupdWorkload) verify(r *rig, plans []batchPlan, res *result) {
	counters := make([]int64, w.counters)
	bins := make([]uint64, w.bins)
	var total, sends uint64
	lo, hi := int64(1<<62), int64(-1)
	for i, n := range r.acked {
		if n == 0 {
			continue
		}
		p := plans[i]
		for c, v := range p.counters {
			counters[c] += int64(n) * v
		}
		for b, v := range p.bins {
			bins[b] += uint64(n) * v
			total += uint64(n) * v
		}
		lo, hi = min(lo, p.min), max(hi, p.max)
		sends += uint64(n)
	}
	var bulk coupd.BulkSnapshot
	if err := r.get(context.Background(), "/v1/snapshot", &bulk); err != nil {
		res.problem("final snapshot: %v", err)
		return
	}
	got := map[string]coupd.Snapshot{}
	for _, s := range bulk.Structures {
		got[s.Name] = s
	}
	for c, want := range counters {
		if want != 0 && got[counterName(c)].Value != want {
			res.problem("counter %s = %d, client saw %d acknowledged", counterName(c), got[counterName(c)].Value, want)
		}
	}
	h := got[histName]
	if h.Total != total || len(h.Bins) != len(bins) {
		res.problem("hist %s total %d over %d bins, client saw %d over %d", histName, h.Total, len(h.Bins), total, len(bins))
	} else {
		for b := range bins {
			if h.Bins[b] != bins[b] {
				res.problem("hist %s bin %d = %d, client saw %d", histName, b, h.Bins[b], bins[b])
				break
			}
		}
	}
	groups := sends * uint64(w.groups)
	if m := got[minmaxName]; m.N != groups || m.Min != lo || m.Max != hi {
		res.problem("minmax %s n=%d [%d, %d], client saw n=%d [%d, %d]", minmaxName, m.N, m.Min, m.Max, groups, lo, hi)
	}
	if rc := got[refcountName]; rc.Value != int64(groups) {
		res.problem("refcount %s = %d, client saw %d", refcountName, rc.Value, groups)
	}
	if applied := counterValue(r.srv.Metrics(), "coupd_updates_total"); applied != int64(groups*4) {
		res.problem("server applied %d records, client saw %d acknowledged", applied, groups*4)
	}
}

func counterValue(reg *obs.Registry, name string) int64 { return reg.Counter(name, "").Value() }

// traced measures the first half of the window untraced and the second
// half with a span around every send, round trip, server handler and
// read, then replays the batches through the server's stages one at a
// time.
func (w coupdWorkload) traced(cfg runConfig, r *rig, plans []batchPlan, rec *recorder, res *result) {
	records := len(plans[0].updates)
	half := cfg.seconds / 2
	g0 := readGoCounters()
	plain := w.measure(r, plans, half, nil)
	g := readGoCounters().sub(g0)
	w.count(plain, res)
	win := w.measure(r, plans, half, rec)
	w.count(win, res)
	spans := rec.take()

	st, err := replayStages(plans, 3)
	if err != nil {
		res.problem("replay: %v", err)
	}
	lt := layerTotals(spans)
	self := selfTimes(spans)
	names := map[uint64]string{}
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	// Round trips split by what made them: a batch send or a read.
	var rtBatch, rtRead int64
	for _, s := range spans {
		if s.Name == "net.roundtrip" {
			if names[s.Parent] == "coupd.client.send" {
				rtBatch += self[s.ID]
			} else {
				rtRead += self[s.ID]
			}
		}
	}
	send, read := lt["coupd.client.send"], lt["coupd.client.read"]
	server, snap := lt["coupd.server.batch"], lt["coupd.server.snapshot"]
	nb, nr := float64(send.n), float64(read.n)
	perBatch := func(ns int64) float64 { return float64(ns) / 1e3 / nb }
	perRead := func(ns int64) float64 { return float64(ns) / 1e3 / nr }
	stages := st.decode + st.apply + st.encode
	reduce := obs.HistSnapshot{}
	r.srv.Metrics().Histogram("coupd_reduce_ns", "", 32).Snapshot(&reduce)
	res.add(
		metric{"coupd.client.send.us_per_batch", perBatch(send.total), "us/batch"},
		metric{"coupd.client.send.self_us_per_batch", perBatch(send.self), "us/batch"},
		metric{"net.roundtrip.self_us_per_batch", perBatch(rtBatch), "us/batch"},
		metric{"coupd.server.batch.us_per_batch", perBatch(server.total), "us/batch"},
		metric{"coupd.stage.decode.us_per_batch", st.decode, "us/batch"},
		metric{"coupd.stage.apply.us_per_batch", st.apply, "us/batch"},
		metric{"coupd.stage.encode.us_per_batch", st.encode, "us/batch"},
		metric{"coupd.server.unattributed.us_per_batch", perBatch(server.total) - stages, "us/batch"},
		metric{"coupd.client.read.us_per_read", perRead(read.total), "us/read"},
		metric{"coupd.client.read.self_us_per_read", perRead(read.self), "us/read"},
		metric{"net.roundtrip.self_us_per_read", perRead(rtRead), "us/read"},
		metric{"coupd.server.snapshot.us_per_read", perRead(snap.total), "us/read"},
		metric{"coupd.registry.reduce.us_p50", reduce.Quantile(0.5) / 1e3, "us"},
		metric{"harness.read_lag_tail_ms", summarize(plain.readLag).tail, "ms"},
		metric{"coupd.client.attempts_per_send", float64(win.attempts) / nb, "ratio"},
		metric{"coupd.server.rejected", float64(counterValue(r.srv.Metrics(), "coupd_rejected_total")), "count"},
		metric{"coupd.server.replays", float64(counterValue(r.srv.Metrics(), "coupd_replays_total")), "count"},
		metric{"go.alloc_bytes_per_batch", g.allocBytes / float64(len(plain.batchLat)), "B/batch"},
		metric{"go.allocs_per_batch", g.allocs / float64(len(plain.batchLat)), "allocs/batch"},
		metric{"go.gc_cycles", g.gcCycles, "count"},
		metric{"trace.overhead_ratio", batchRate(plain.batchLat, records) / batchRate(win.batchLat, records), "ratio"},
	)
	// A send's span holds its round trips, which hold the server's
	// handler: their self times must add up to the sends' total.
	var batchSelf int64
	for _, s := range spans {
		if s.Name == "coupd.client.send" || names[s.Parent] == "coupd.client.send" || s.Name == "coupd.server.batch" {
			batchSelf += self[s.ID]
		}
	}
	if batchSelf != send.total {
		res.problem("batch span self times sum to %d ns, sends took %d ns", batchSelf, send.total)
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, spans); err != nil {
			res.problem("%v", err)
		}
	}
}

// stageTimes are the mean microseconds per batch of each server stage.
type stageTimes struct{ decode, apply, encode float64 }

// replayStages runs every planned batch body through the batch
// handler's stages as separate calls: decode into a BatchRequest, apply
// each record to a fresh Registry, encode the BatchResponse. The first
// pass creates the structures and is not counted.
func replayStages(plans []batchPlan, passes int) (stageTimes, error) {
	bodies := make([][]byte, len(plans))
	for i, p := range plans {
		b, err := json.Marshal(coupd.BatchRequest{Updates: p.updates, Client: writerID, Seq: uint64(i + 1)})
		if err != nil {
			return stageTimes{}, err
		}
		bodies[i] = b
	}
	reg := coupd.NewRegistry()
	var dec, app, enc time.Duration
	n := 0
	for pass := 0; pass <= passes; pass++ {
		for _, body := range bodies {
			t0 := time.Now()
			var req coupd.BatchRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return stageTimes{}, err
			}
			t1 := time.Now()
			for i := range req.Updates {
				if err := reg.Apply(&req.Updates[i]); err != nil {
					return stageTimes{}, err
				}
			}
			t2 := time.Now()
			if _, err := json.Marshal(coupd.BatchResponse{Applied: len(req.Updates)}); err != nil {
				return stageTimes{}, err
			}
			t3 := time.Now()
			if pass > 0 {
				dec, app, enc = dec+t1.Sub(t0), app+t2.Sub(t1), enc+t3.Sub(t2)
				n++
			}
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(n) }
	return stageTimes{us(dec), us(app), us(enc)}, nil
}

// Span context crosses the socket in spanHeader as "<span id>/<request id>".
const spanHeader = "X-Bench-Span"

type spanKey struct{}

type spanRef struct{ id, req uint64 }

// withSpan carries sp to the transport; an untraced (zero) span leaves
// ctx alone.
func withSpan(ctx context.Context, sp active) context.Context {
	if sp.r == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{sp.id(), sp.s.Req})
}

// tracedTransport records a net.roundtrip span around each traced
// request and names it in spanHeader for the server side.
type tracedTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return t.next.RoundTrip(req)
	}
	sp := t.rec.open("net.roundtrip", parent.id, parent.req)
	defer sp.close()
	req = req.Clone(req.Context()) // a RoundTripper must not modify its request
	req.Header.Set(spanHeader, strconv.FormatUint(sp.id(), 10)+"/"+strconv.FormatUint(parent.req, 10))
	return t.next.RoundTrip(req)
}

// tracedHandler records the server's span for every request that
// carries spanHeader.
type tracedHandler struct {
	rec  *recorder
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	idStr, reqStr, ok := strings.Cut(r.Header.Get(spanHeader), "/")
	parent, err1 := strconv.ParseUint(idStr, 10, 64)
	req, err2 := strconv.ParseUint(reqStr, 10, 64)
	if !ok || err1 != nil || err2 != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	name := "coupd.server.batch"
	if r.Method == http.MethodGet {
		name = "coupd.server.snapshot"
	}
	sp := h.rec.open(name, parent, req)
	defer sp.close()
	h.next.ServeHTTP(w, r)
}
