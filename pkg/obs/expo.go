package obs

import (
	"io"
	"net/http"
	"strconv"
	"strings"
)

// This file is the read side of the metrics layer: the Prometheus text
// exposition format, version 0.0.4. Families are emitted in sorted-name
// order so identical registry state always produces byte-identical
// output — exposition is a reduction, and reductions here are
// deterministic by contract (the same rule detrange enforces on the
// simulator's stats paths).

// appendHeader appends the # HELP / # TYPE preamble for one family.
func appendHeader(b []byte, name, help, kind string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = appendEscapedHelp(b, help)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, kind...)
	b = append(b, '\n')
	return b
}

// appendEscapedHelp escapes backslash and newline, as the format
// requires in HELP text.
func appendEscapedHelp(b []byte, help string) []byte {
	if !strings.ContainsAny(help, "\\\n") {
		return append(b, help...)
	}
	for i := 0; i < len(help); i++ {
		switch help[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, help[i])
		}
	}
	return b
}

func appendInt(b []byte, v int64) []byte   { return strconv.AppendInt(b, v, 10) }
func appendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }

func appendSampleInt(b []byte, name string, v int64) []byte {
	b = append(b, name...)
	b = append(b, ' ')
	b = appendInt(b, v)
	b = append(b, '\n')
	return b
}

// WriteMetrics reduces every registered metric and writes the full
// exposition page to w. Output is deterministic for identical registry
// state: families appear in sorted-name order and every figure is a
// point-in-time reduction.
func (r *Registry) WriteMetrics(w io.Writer) error {
	var b []byte
	for _, m := range r.sorted() {
		b = m.writeExpo(b)
	}
	_, err := w.Write(b)
	return err
}

// Handler returns an http.Handler serving the exposition page with the
// text-format content type, suitable for mounting at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteMetrics(w)
	})
}
