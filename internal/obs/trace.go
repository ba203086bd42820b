// Package obs is the observability substrate of the repro: a low-overhead
// span tracer that serializes runs as Chrome trace-event JSON (openable in
// Perfetto / chrome://tracing, one track per simulated rank), and the
// Prometheus text exposition writers: fixed-bucket histograms and single
// gauge or counter samples.
//
// The package is dependency-free (stdlib only) so every layer — mpi, dgraph,
// sclp, matchbase, core, server — can import it without cycles. Both halves
// are built around the same discipline: when observability is off it must
// cost nothing. A nil *Tracer is a valid, disabled tracer; Begin/End on it
// perform no clock reads and no allocations, so instrumentation can stay in
// superstep hot loops permanently.
package obs

import (
	"fmt"
	"io"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// maxSpanArgs is the number of key/value arguments one span can carry. The
// fixed array keeps span recording allocation-free apart from amortized
// buffer growth.
const maxSpanArgs = 3

// Arg is one span annotation (e.g. moves per superstep, words per
// exchange). Values are int64 — every quantity the pipeline reports
// (counts, bytes, levels) is integral.
type Arg struct {
	Key string
	Val int64
}

// event is one completed span, stored in the owning rank's buffer.
type event struct {
	name  string
	start int64 // nanoseconds since the tracer epoch
	dur   int64 // nanoseconds
	args  [maxSpanArgs]Arg
	nargs int
}

// rankTrack is one rank's span buffer. Each simulated rank appends from its
// own goroutine; the mutex exists for the reader side (WriteJSON while or
// after a run) and costs one uncontended lock per span when enabled.
type rankTrack struct {
	mu     sync.Mutex
	events []event
}

// Tracer records spans on a fixed set of rank tracks. Create one with
// NewTracer when tracing is requested; pass nil everywhere otherwise — all
// methods are nil-safe no-ops, and the disabled path performs zero
// allocations and zero clock reads.
type Tracer struct {
	epoch  time.Time
	tracks []rankTrack
}

// NewTracer returns an enabled tracer with one track per rank in
// [0, ranks). Spans recorded against ranks outside the range are dropped
// (never a panic: rank counts can differ between pipeline stages).
func NewTracer(ranks int) *Tracer {
	if ranks < 1 {
		ranks = 1
	}
	return &Tracer{epoch: time.Now(), tracks: make([]rankTrack, ranks)}
}

// Span is an in-flight span handle returned by Begin. The zero Span (from a
// nil or out-of-range tracer) is inert: End on it does nothing.
type Span struct {
	t     *Tracer
	rank  int32
	start int64
	name  string
}

// Begin opens a span named name on the given rank's track. On a nil tracer
// it returns the inert zero Span without reading the clock.
//
//parhip:hotpath
func (t *Tracer) Begin(rank int, name string) Span {
	if t == nil || rank < 0 || rank >= len(t.tracks) {
		return Span{}
	}
	return Span{t: t, rank: int32(rank), name: name, start: int64(time.Since(t.epoch))}
}

// record closes sp with the given args copied into the event buffer.
//
//parhip:hotpath
func (t *Tracer) record(sp Span, a0, a1, a2 Arg, nargs int) {
	end := int64(time.Since(t.epoch))
	tr := &t.tracks[sp.rank]
	//lint:hotpath-ok per-rank track: only that rank's goroutine ends spans, so the lock is uncontended; it guards WriteJSON racing a live run
	tr.mu.Lock()
	tr.events = append(tr.events, event{
		name:  sp.name,
		start: sp.start,
		dur:   end - sp.start,
		args:  [maxSpanArgs]Arg{a0, a1, a2},
		nargs: nargs,
	})
	//lint:hotpath-ok paired with the annotated Lock above
	tr.mu.Unlock()
}

// End closes the span with no annotations. Inert on the zero Span.
//
//parhip:hotpath
func (t *Tracer) End(sp Span) {
	if sp.t == nil {
		return
	}
	sp.t.record(sp, Arg{}, Arg{}, Arg{}, 0)
}

// End1 closes the span with one annotation. The fixed-arity End variants
// exist instead of a variadic signature so that disabled-path callers never
// construct an argument slice — escape analysis would otherwise heap-
// allocate it even when the tracer is nil.
//
//parhip:hotpath
func (t *Tracer) End1(sp Span, k string, v int64) {
	if sp.t == nil {
		return
	}
	sp.t.record(sp, Arg{k, v}, Arg{}, Arg{}, 1)
}

// End2 closes the span with two annotations.
//
//parhip:hotpath
func (t *Tracer) End2(sp Span, k1 string, v1 int64, k2 string, v2 int64) {
	if sp.t == nil {
		return
	}
	sp.t.record(sp, Arg{k1, v1}, Arg{k2, v2}, Arg{}, 2)
}

// End3 closes the span with three annotations.
//
//parhip:hotpath
func (t *Tracer) End3(sp Span, k1 string, v1 int64, k2 string, v2 int64, k3 string, v3 int64) {
	if sp.t == nil {
		return
	}
	sp.t.record(sp, Arg{k1, v1}, Arg{k2, v2}, Arg{k3, v3}, 3)
}

// heapObjects is the runtime metric HeapMB reads: the bytes held by heap
// objects, live or not yet swept.
const heapObjects = "/memory/classes/heap/objects:bytes"

// HeapMB samples the heap for a span argument: one runtime/metrics read of
// the bytes held by heap objects, in whole MiB. Ranks in one process share
// one heap, so the sample is the process's, not the calling rank's. On a
// nil tracer it reads nothing and returns 0, so an untraced run pays no
// sample.
func (t *Tracer) HeapMB() int64 {
	if t == nil {
		return 0
	}
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64() >> 20)
}

// SpanInfo is one recorded span as MaxArg reports it.
type SpanInfo struct {
	Rank int
	Name string
	End  time.Duration // since the tracer was created
	Args []Arg
}

// MaxArg returns the recorded span whose argument key holds the largest
// value, the earliest-ending one on a tie; ok is false when no span
// carries key (always on a nil tracer).
func (t *Tracer) MaxArg(key string) (best SpanInfo, ok bool) {
	if t == nil {
		return SpanInfo{}, false
	}
	var bestVal int64
	for r := range t.tracks {
		tr := &t.tracks[r]
		tr.mu.Lock()
		for _, ev := range tr.events {
			for _, a := range ev.args[:ev.nargs] {
				if a.Key != key {
					continue
				}
				end := time.Duration(ev.start + ev.dur)
				if !ok || a.Val > bestVal || (a.Val == bestVal && end < best.End) {
					best = SpanInfo{Rank: r, Name: ev.name, End: end, Args: slices.Clone(ev.args[:ev.nargs])}
					bestVal, ok = a.Val, true
				}
			}
		}
		tr.mu.Unlock()
	}
	return best, ok
}

// SpanCount returns the total number of recorded spans across all tracks
// (0 for a nil tracer).
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	n := 0
	for r := range t.tracks {
		tr := &t.tracks[r]
		tr.mu.Lock()
		n += len(tr.events)
		tr.mu.Unlock()
	}
	return n
}

// WriteJSON renders every recorded span as a Chrome trace-event document:
//
//	{"displayTimeUnit":"ms","traceEvents":[...]}
//
// Events use the complete-event form ("ph":"X") with microsecond
// timestamps; pid 0 carries one tid per rank plus thread_name metadata, so
// Perfetto and chrome://tracing show one named track per rank. Safe to call
// while spans are still being recorded (the snapshot is per-track
// consistent).
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[]}`)
		return err
	}
	bw := &errWriter{w: w}
	bw.printf(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for r := range t.tracks {
		if !first {
			bw.printf(",")
		}
		first = false
		bw.printf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"rank %d"}}`, r, r)
	}
	for r := range t.tracks {
		tr := &t.tracks[r]
		tr.mu.Lock()
		evs := make([]event, len(tr.events))
		copy(evs, tr.events)
		tr.mu.Unlock()
		for _, ev := range evs {
			bw.printf(",\n")
			bw.printf(`{"ph":"X","pid":0,"tid":%d,"name":%q,"ts":%.3f,"dur":%.3f`,
				r, ev.name, float64(ev.start)/1e3, float64(ev.dur)/1e3)
			if ev.nargs > 0 {
				bw.printf(`,"args":{`)
				for i := 0; i < ev.nargs; i++ {
					if i > 0 {
						bw.printf(",")
					}
					bw.printf(`%q:%d`, ev.args[i].Key, ev.args[i].Val)
				}
				bw.printf("}")
			}
			bw.printf("}")
		}
	}
	bw.printf("]}\n")
	return bw.err
}

// errWriter latches the first write error so the emit loop stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
