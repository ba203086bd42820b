package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// WriteSample renders one single-sample metric family (typ "gauge" or
// "counter") in Prometheus text exposition format (version 0.0.4).
func WriteSample(w io.Writer, name, help, typ string, v float64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, formatFloat(v))
	return err
}

// Histogram is a fixed-bucket histogram of float64 observations (typically
// seconds). Buckets are cumulative in the exposition output, matching
// Prometheus semantics: bucket{le="x"} counts observations <= x, and a
// final le="+Inf" bucket equals _count.
type Histogram struct {
	name   string
	help   string
	bounds []float64 // sorted upper bounds, +Inf excluded

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is the overflow (+Inf) bucket
	sum    float64
	total  uint64
}

// DurationBuckets is a general-purpose latency bucket ladder in seconds,
// spanning 1ms to ~4min in powers of 4.
var DurationBuckets = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536, 262.144}

// NewHistogram returns a histogram with the given bucket upper bounds
// (seconds by convention). Bounds must be sorted ascending; the +Inf
// bucket is implicit.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not sorted: " + name)
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// WritePrometheus renders h in text exposition format.
func (h *Histogram) WritePrometheus(w io.Writer) error {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum := h.sum
	total := h.total
	h.mu.Unlock()
	bw := &errWriter{w: w}
	bw.printf("# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		bw.printf("%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum)
	}
	bw.printf("%s_bucket{le=\"+Inf\"} %d\n", h.name, total)
	bw.printf("%s_sum %s\n%s_count %d\n", h.name, formatFloat(sum), h.name, total)
	return bw.err
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, integral values without a trailing ".0".
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
