package obs

import (
	"repro/pkg/commute"
)

// Counter is a named, registry-owned counter over commute.Counter: adds
// take the sharded update-only path, reads reduce. The same type backs
// both monotonic counters and up/down counters (queue depths); only the
// exposition TYPE differs.
type Counter struct {
	name  string
	help  string
	gauge bool
	c     *commute.Counter
}

func newCounter(name, help string, gauge bool) *Counter {
	return &Counter{name: name, help: help, gauge: gauge, c: commute.NewCounter()}
}

// Inc adds one.
//
//coup:hotpath
func (c *Counter) Inc() { c.c.Add(1) }

// Dec subtracts one (up/down counters only by convention; the type does
// not enforce monotonicity).
//
//coup:hotpath
func (c *Counter) Dec() { c.c.Add(-1) }

// Add folds delta in on the calling goroutine's shard.
//
//coup:hotpath
func (c *Counter) Add(delta int64) { c.c.Add(delta) }

// Value reduces the shards and returns the count.
func (c *Counter) Value() int64 { return c.c.Value() }

func (c *Counter) expoName() string { return c.name }
func (c *Counter) expoHelp() string { return c.help }

func (c *Counter) writeExpo(b []byte) []byte {
	kind := "counter"
	if c.gauge {
		kind = "gauge"
	}
	b = appendHeader(b, c.name, c.help, kind)
	b = appendSampleInt(b, c.name, c.c.Value())
	return b
}

// Gauge is a sampled-on-read metric: fn is evaluated when the gauge is
// read or exposed, never stored. It suits facts that already live
// elsewhere (goroutine counts, heap bytes, registry sizes) — the metric
// layer only needs a window onto them, not a copy.
type Gauge struct {
	name string
	help string
	fn   func() int64
}

// Value samples the gauge.
func (g *Gauge) Value() int64 { return g.fn() }

func (g *Gauge) expoName() string { return g.name }
func (g *Gauge) expoHelp() string { return g.help }

func (g *Gauge) writeExpo(b []byte) []byte {
	b = appendHeader(b, g.name, g.help, "gauge")
	b = appendSampleInt(b, g.name, g.fn())
	return b
}
