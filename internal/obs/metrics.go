package obs

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and renders them in Prometheus text
// exposition format (version 0.0.4). Collectors register once at startup;
// WritePrometheus emits them sorted by name so the output is stable for
// golden tests and scrape diffing.
type Registry struct {
	mu   sync.Mutex
	cols []collector
}

type collector interface {
	metricName() string
	write(w *errWriter)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(c collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.cols {
		if have.metricName() == c.metricName() {
			panic("obs: duplicate metric " + c.metricName())
		}
	}
	r.cols = append(r.cols, c)
}

// WritePrometheus renders every registered metric in text exposition
// format, sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	cols := make([]collector, len(r.cols))
	copy(cols, r.cols)
	r.mu.Unlock()
	sort.Slice(cols, func(i, j int) bool { return cols[i].metricName() < cols[j].metricName() })
	bw := &errWriter{w: w}
	for _, c := range cols {
		c.write(bw)
	}
	return bw.err
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) write(w *errWriter) {
	w.printf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v.Load())
}

// Gauge is a settable int64 metric.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) write(w *errWriter) {
	w.printf("# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.v.Load())
}

// funcCollector renders a value computed at scrape time. Used to expose
// state that already lives elsewhere (e.g. jobManager fields) without
// double bookkeeping.
type funcCollector struct {
	name string
	help string
	typ  string // "gauge" or "counter"
	fn   func() float64
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&funcCollector{name: name, help: help, typ: "gauge", fn: fn})
}

// CounterFunc registers a counter whose value is computed by fn at scrape
// time. fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&funcCollector{name: name, help: help, typ: "counter", fn: fn})
}

func (f *funcCollector) metricName() string { return f.name }

func (f *funcCollector) write(w *errWriter) {
	w.printf("# HELP %s %s\n# TYPE %s %s\n%s %s\n",
		f.name, f.help, f.name, f.typ, f.name, formatFloat(f.fn()))
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

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (seconds by convention). Bounds must be sorted ascending;
// the +Inf bucket is implicit.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not sorted: " + name)
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.register(h)
	return h
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

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) write(w *errWriter) {
	h.mu.Lock()
	counts := make([]uint64, len(h.counts))
	copy(counts, h.counts)
	sum := h.sum
	total := h.total
	h.mu.Unlock()
	w.printf("# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		w.printf("%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum)
	}
	w.printf("%s_bucket{le=\"+Inf\"} %d\n", h.name, total)
	w.printf("%s_sum %s\n%s_count %d\n", h.name, formatFloat(sum), h.name, total)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// round-trip representation, integral values without a trailing ".0".
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
