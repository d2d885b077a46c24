package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Registry holds named metrics. Creation is GetOrCreate — asking for an
// existing name with the same kind returns the same handle, so callers
// anywhere in a process converge on one structure per name (the coupd
// registry's create-on-first-touch semantics, applied to telemetry).
// Asking for an existing name with a different kind panics: that is a
// naming bug in the program, not a runtime condition.
//
// The registry itself is never on a hot path: callers hold the returned
// handles and update through them; the registry is consulted only at
// creation and at exposition time.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]metric
}

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

// metric is one registered family: anything that can describe itself and
// write its exposition block.
type metric interface {
	expoName() string
	expoHelp() string
	// writeExpo appends the family's full text-format block (HELP, TYPE,
	// samples) to b and returns it; buf is reusable number scratch.
	writeExpo(b []byte) []byte
}

// validName reports whether name is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register installs m under name, or returns the existing metric. The
// caller type-asserts the result and panics on kind mismatch.
func (r *Registry) register(name string, mk func() metric) metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want [a-zA-Z_:][a-zA-Z0-9_:]*)", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Counter returns the registered counter name, creating it with help on
// first use (later help values are ignored, like coupd's
// create-on-first-update Bins). It panics if name is invalid or already
// registered as a different kind.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, func() metric { return newCounter(name, help, false) })
	c, ok := m.(*Counter)
	if !ok || c.gauge {
		panic(fmt.Sprintf("obs: metric %q already registered as a different kind", name))
	}
	return c
}

// UpDownCounter is Counter for values that may decrease (queue depths,
// in-flight counts); it is exposed with TYPE gauge, as Prometheus
// requires for non-monotonic series.
func (r *Registry) UpDownCounter(name, help string) *Counter {
	m := r.register(name, func() metric { return newCounter(name, help, true) })
	c, ok := m.(*Counter)
	if !ok || !c.gauge {
		panic(fmt.Sprintf("obs: metric %q already registered as a different kind", name))
	}
	return c
}

// Gauge registers a sampled-on-read gauge: fn is evaluated at exposition
// or Value time, never stored — the natural shape for runtime facts
// (goroutine counts, heap sizes) that already live somewhere else.
func (r *Registry) Gauge(name, help string, fn func() int64) *Gauge {
	m := r.register(name, func() metric { return &Gauge{name: name, help: help, fn: fn} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as a different kind", name))
	}
	return g
}

// Histogram returns the registered log2-bucket histogram name, creating
// it with bins buckets on first use (later bins values are ignored).
func (r *Registry) Histogram(name, help string, bins int) *Histogram {
	m := r.register(name, func() metric { return newHistogram(name, help, bins) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as a different kind", name))
	}
	return h
}

// Names returns every registered family name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// sorted returns the registered metrics in sorted-name order — the one
// iteration order every reader (WriteMetrics, tests) observes, so
// exposition output is byte-identical for identical registry state.
func (r *Registry) sorted() []metric {
	r.mu.RLock()
	out := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].expoName() < out[j].expoName() })
	return out
}
