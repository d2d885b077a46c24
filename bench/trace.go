package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request (one spec,
// one batch, one read) share Req; Parent links a span to the span that
// made the call, across goroutines when the call crossed the loopback
// socket. Times are nanoseconds since the recorder started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so the traced code paths double as untraced ones.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// active is a span that has started and not yet ended.
type active struct {
	r *recorder
	s span
}

// open starts a span named name under parent (0 for a root) in request
// req (0 starts a new request, numbered by the span's own id).
func (r *recorder) open(name string, parent, req uint64) active {
	if r == nil {
		return active{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	if req == 0 {
		req = id
	}
	return active{r: r, s: span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(r.t0).Nanoseconds()}}
}

// close ends the span and keeps it.
func (a active) close() {
	if a.r == nil {
		return
	}
	a.s.End = time.Since(a.r.t0).Nanoseconds()
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, a.s)
	a.r.mu.Unlock()
}

// id is the span's id, for children to name as their parent.
func (a active) id() uint64 { return a.s.ID }

// take returns the spans recorded so far and forgets them.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once, and a child's time outside its parent's interval is not the
// parent's to lose.
func selfTimes(spans []span) map[uint64]int64 {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered := int64(0)
		cur := s.Start // covered up to here
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerTotal is one span name's summed durations, self times and count.
type layerTotal struct {
	total, self int64
	n           int
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := map[string]layerTotal{}
	for _, s := range spans {
		t := out[s.Name]
		t.total += s.dur()
		t.self += self[s.ID]
		t.n++
		out[s.Name] = t
	}
	return out
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
