package obs

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestTraceJSONWellFormed records spans on several ranks and checks the
// serialized document parses as Chrome trace-event JSON with one metadata-
// named track per rank and correct per-event fields.
func TestTraceJSONWellFormed(t *testing.T) {
	tr := NewTracer(3)
	for rank := 0; rank < 3; rank++ {
		sp := tr.Begin(rank, "sclp.superstep")
		tr.End2(sp, "moves", int64(10*rank), "phase", 1)
		sp2 := tr.Begin(rank, "mpi.alltoallv")
		tr.End1(sp2, "words", 128)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Name string          `json:"name"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, sb.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	metaTracks := map[int]bool{}
	spanTracks := map[int]int{}
	var names []string // rank 1's span names, in recording order
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				t.Errorf("metadata event name = %q", ev.Name)
			}
			metaTracks[ev.Tid] = true
		case "X":
			spanTracks[ev.Tid]++
			if ev.Tid == 1 {
				names = append(names, ev.Name)
			}
			if ev.Dur < 0 {
				t.Errorf("negative duration on %q", ev.Name)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	for rank := 0; rank < 3; rank++ {
		if !metaTracks[rank] {
			t.Errorf("rank %d missing thread_name metadata", rank)
		}
		if spanTracks[rank] != 2 {
			t.Errorf("rank %d has %d spans, want 2", rank, spanTracks[rank])
		}
	}
	if got := tr.SpanCount(); got != 6 {
		t.Errorf("SpanCount = %d, want 6", got)
	}
	want := []string{"sclp.superstep", "mpi.alltoallv"}
	if len(names) != len(want) || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("rank 1 spans = %v, want %v", names, want)
	}
}

// TestTracerArgsSerialized checks span args survive the JSON round trip.
func TestTracerArgsSerialized(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.Begin(0, "x")
	tr.End3(sp, "a", 1, "b", 2, "c", 3)
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"args":{"a":1,"b":2,"c":3}`) {
		t.Errorf("args not serialized: %s", sb.String())
	}
}

// TestNilTracerSafe exercises every method on a nil tracer.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(0, "x")
	tr.End(sp)
	tr.End1(sp, "k", 1)
	tr.End2(sp, "k", 1, "k2", 2)
	tr.End3(sp, "k", 1, "k2", 2, "k3", 3)
	if tr.SpanCount() != 0 {
		t.Error("nil tracer not inert")
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"traceEvents":[]`) {
		t.Errorf("nil tracer JSON = %s", sb.String())
	}
}

// TestNilTracerTimesSpans checks that a span on a nil tracer still times
// itself: End returns the time since Begin, Elapsed reads it mid-span, and
// nothing is recorded.
func TestNilTracerTimesSpans(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(0, "x")
	time.Sleep(time.Millisecond)
	mid := sp.Elapsed()
	d := tr.End1(sp, "k", 1)
	if mid < time.Millisecond || d < mid {
		t.Errorf("nil tracer span: Elapsed %v then End %v, want >= 1ms and non-decreasing", mid, d)
	}
	if tr.SpanCount() != 0 {
		t.Error("nil tracer recorded a span")
	}
}

// TestEndReturnsRecordedDuration checks that End's duration is the one the
// trace stores.
func TestEndReturnsRecordedDuration(t *testing.T) {
	tr := NewTracer(1)
	d := tr.End2(tr.Begin(0, "x"), "a", 1, "b", 2)
	if got := time.Duration(tr.tracks[0].events[0].dur); got != d {
		t.Errorf("End returned %v, recorded dur %v", d, got)
	}
}

// TestOutOfRangeRankDropped checks spans against out-of-range ranks are
// dropped rather than panicking.
func TestOutOfRangeRankDropped(t *testing.T) {
	tr := NewTracer(2)
	tr.End(tr.Begin(5, "x"))
	tr.End(tr.Begin(-1, "x"))
	if tr.SpanCount() != 0 {
		t.Errorf("out-of-range spans recorded: %d", tr.SpanCount())
	}
}

// TestNilTracerZeroAllocs is the acceptance check that the disabled-tracer
// path — exactly the Begin/End2 pattern used per sclp superstep — performs
// zero allocations.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	moves := int64(42)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(3, "sclp.superstep")
		tr.End2(sp, "moves", moves, "phase", 2)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestHeapMB checks the span heap sample: a nil tracer reads nothing and
// allocates nothing, and an enabled one sees a live 8 MiB slice.
func TestHeapMB(t *testing.T) {
	var off *Tracer
	if allocs := testing.AllocsPerRun(100, func() {
		if off.HeapMB() != 0 {
			t.Fatal("nil tracer sampled the heap")
		}
	}); allocs != 0 {
		t.Errorf("nil tracer's HeapMB allocates %.1f allocs/op, want 0", allocs)
	}
	live := make([]byte, 8<<20)
	if mb := NewTracer(1).HeapMB(); mb < 8 {
		t.Errorf("HeapMB = %d with an 8 MiB slice live", mb)
	}
	runtime.KeepAlive(live)
}

// TestMaxArg checks that MaxArg finds the span with the largest value of
// one argument across ranks, the earliest-ending on a tie, and reports
// nothing for an argument no span carries.
func TestMaxArg(t *testing.T) {
	tr := NewTracer(2)
	tr.End2(tr.Begin(0, "a"), "level", 0, "heap_mb", 40)
	tr.End2(tr.Begin(1, "b"), "level", 1, "heap_mb", 70)
	time.Sleep(time.Millisecond) // c ends strictly after b
	tr.End1(tr.Begin(0, "c"), "heap_mb", 70)
	tr.End1(tr.Begin(1, "d"), "moves", 99)
	sp, ok := tr.MaxArg("heap_mb")
	if !ok || sp.Name != "b" || sp.Rank != 1 || sp.End <= 0 {
		t.Fatalf("MaxArg(heap_mb) = %+v, %v; want span b on rank 1", sp, ok)
	}
	if len(sp.Args) != 2 || sp.Args[0] != (Arg{"level", 1}) || sp.Args[1] != (Arg{"heap_mb", 70}) {
		t.Errorf("MaxArg args = %v", sp.Args)
	}
	if _, ok := tr.MaxArg("cut"); ok {
		t.Error("MaxArg found an argument no span carries")
	}
	var off *Tracer
	if _, ok := off.MaxArg("heap_mb"); ok {
		t.Error("nil tracer reported a span")
	}
}

// TestPrometheusExposition is a golden test for the text format: a
// histogram with cumulative buckets followed by counter and gauge samples.
func TestPrometheusExposition(t *testing.T) {
	h := NewHistogram("parhipd_job_run_seconds", "Wall time of job execution.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.7)
	h.Observe(42)

	var sb strings.Builder
	if err := h.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name, help, typ string
		v               float64
	}{
		{"parhipd_jobs_submitted_total", "Jobs accepted.", "counter", 6},
		{"parhipd_queue_depth", "Jobs waiting to run.", "gauge", 3},
		{"parhipd_workers_busy", "Workers currently running a job.", "gauge", 2},
	} {
		if err := WriteSample(&sb, s.name, s.help, s.typ, s.v); err != nil {
			t.Fatal(err)
		}
	}
	want := `# HELP parhipd_job_run_seconds Wall time of job execution.
# TYPE parhipd_job_run_seconds histogram
parhipd_job_run_seconds_bucket{le="0.1"} 1
parhipd_job_run_seconds_bucket{le="1"} 3
parhipd_job_run_seconds_bucket{le="10"} 3
parhipd_job_run_seconds_bucket{le="+Inf"} 4
parhipd_job_run_seconds_sum 43.25
parhipd_job_run_seconds_count 4
# HELP parhipd_jobs_submitted_total Jobs accepted.
# TYPE parhipd_jobs_submitted_total counter
parhipd_jobs_submitted_total 6
# HELP parhipd_queue_depth Jobs waiting to run.
# TYPE parhipd_queue_depth gauge
parhipd_queue_depth 3
# HELP parhipd_workers_busy Workers currently running a job.
# TYPE parhipd_workers_busy gauge
parhipd_workers_busy 2
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", sb.String(), want)
	}
}

// BenchmarkDisabledTracerSuperstep measures the per-superstep cost of the
// instrumentation with tracing off; the 0 allocs/op report is the
// acceptance criterion.
func BenchmarkDisabledTracerSuperstep(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin(0, "sclp.superstep")
		tr.End2(sp, "moves", int64(i), "phase", 1)
	}
}

// BenchmarkEnabledTracerSuperstep is the enabled-path counterpart, for
// eyeballing the cost when tracing is on.
func BenchmarkEnabledTracerSuperstep(b *testing.B) {
	tr := NewTracer(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin(0, "sclp.superstep")
		tr.End2(sp, "moves", int64(i), "phase", 1)
	}
}
