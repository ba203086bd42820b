// Package obs is the observability substrate of the repro: a low-overhead
// span tracer that serializes runs as Chrome trace-event JSON (openable in
// Perfetto / chrome://tracing, one track per simulated rank), and the
// Prometheus text exposition writers: fixed-bucket histograms and single
// gauge or counter samples.
//
// The package is dependency-free (stdlib only) so every layer — mpi, dgraph,
// sclp, matchbase, core, server — can import it without cycles. Spans are
// also the pipeline's one clock: End returns the span's duration, and
// core's and matchbase's Stats times are those durations, so a traced run's
// phase times are the trace's span durations to the nanosecond. A nil
// *Tracer is a valid, disabled tracer: Begin and End on it read the clock
// once each and record nothing, so instrumentation can stay in superstep
// hot loops permanently without allocating.
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

// clockBase anchors every span's clock reading: spans hold their start as
// nanoseconds since it, on the monotonic clock.
var clockBase = time.Now()

// now is the one clock read behind Begin, End and Elapsed.
func now() int64 { return int64(time.Since(clockBase)) }

// Tracer records spans on a fixed set of rank tracks. Create one with
// NewTracer when tracing is requested; pass nil everywhere otherwise — all
// methods are nil-safe, and on the disabled path spans still time
// themselves (one clock read in Begin, one in End) but record nothing and
// allocate nothing.
type Tracer struct {
	epoch  int64 // clock reading at NewTracer; recorded starts are relative to it
	tracks []rankTrack
}

// NewTracer returns an enabled tracer with one track per rank in
// [0, ranks). Spans recorded against ranks outside the range are dropped
// (never a panic: rank counts can differ between pipeline stages).
func NewTracer(ranks int) *Tracer {
	if ranks < 1 {
		ranks = 1
	}
	return &Tracer{epoch: now(), tracks: make([]rankTrack, ranks)}
}

// Span is an in-flight span handle returned by Begin. It always carries its
// start time; only a span from an enabled tracer and an in-range rank is
// recorded when it ends.
type Span struct {
	t     *Tracer
	rank  int32
	start int64 // clock reading at Begin
	name  string
}

// Begin opens a span named name on the given rank's track and stamps its
// start time, on every tracer: a nil or out-of-range one returns a span
// that times itself but is never recorded.
//
//parhip:hotpath
func (t *Tracer) Begin(rank int, name string) Span {
	sp := Span{start: now()}
	if t != nil && rank >= 0 && rank < len(t.tracks) {
		sp.t, sp.rank, sp.name = t, int32(rank), name
	}
	return sp
}

// Elapsed returns the time since sp began, for reading a span's progress
// before it ends.
func (sp Span) Elapsed() time.Duration { return time.Duration(now() - sp.start) }

// record stores sp, ended at the clock reading end, with the given args
// copied into the event buffer.
//
//parhip:hotpath
func (t *Tracer) record(sp Span, end int64, a0, a1, a2 Arg, nargs int) {
	tr := &t.tracks[sp.rank]
	//lint:hotpath-ok per-rank track: only that rank's goroutine ends spans, so the lock is uncontended; it guards WriteJSON racing a live run
	tr.mu.Lock()
	tr.events = append(tr.events, event{
		name:  sp.name,
		start: sp.start - t.epoch,
		dur:   end - sp.start,
		args:  [maxSpanArgs]Arg{a0, a1, a2},
		nargs: nargs,
	})
	//lint:hotpath-ok paired with the annotated Lock above
	tr.mu.Unlock()
}

// End closes the span with no annotations and returns its duration, the
// one a recorded span stores as dur. Records nothing for a span from a
// nil or out-of-range tracer.
//
//parhip:hotpath
func (t *Tracer) End(sp Span) time.Duration {
	end := now()
	if sp.t != nil {
		sp.t.record(sp, end, Arg{}, Arg{}, Arg{}, 0)
	}
	return time.Duration(end - sp.start)
}

// End1 closes the span with one annotation and returns its duration. The
// fixed-arity End variants exist instead of a variadic signature so that
// disabled-path callers never construct an argument slice — escape analysis
// would otherwise heap-allocate it even when the tracer is nil.
//
//parhip:hotpath
func (t *Tracer) End1(sp Span, k string, v int64) time.Duration {
	end := now()
	if sp.t != nil {
		sp.t.record(sp, end, Arg{k, v}, Arg{}, Arg{}, 1)
	}
	return time.Duration(end - sp.start)
}

// End2 closes the span with two annotations and returns its duration.
//
//parhip:hotpath
func (t *Tracer) End2(sp Span, k1 string, v1 int64, k2 string, v2 int64) time.Duration {
	end := now()
	if sp.t != nil {
		sp.t.record(sp, end, Arg{k1, v1}, Arg{k2, v2}, Arg{}, 2)
	}
	return time.Duration(end - sp.start)
}

// End3 closes the span with three annotations and returns its duration.
//
//parhip:hotpath
func (t *Tracer) End3(sp Span, k1 string, v1 int64, k2 string, v2 int64, k3 string, v3 int64) time.Duration {
	end := now()
	if sp.t != nil {
		sp.t.record(sp, end, Arg{k1, v1}, Arg{k2, v2}, Arg{k3, v3}, 3)
	}
	return time.Duration(end - sp.start)
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
