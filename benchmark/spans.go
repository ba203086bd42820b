package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program
// under test. parent is the index of the span that caused it (-1 for a
// root); all spans of a recorder share its workload id.
type span struct {
	name       string
	rank       int
	parent     int
	start, end time.Duration // since the recorder's origin
}

// recorder keeps spans in memory; ranks record concurrently.
type recorder struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

func (r *recorder) begin(rank int, name string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, rank: rank, parent: parent, start: time.Since(r.origin)})
	return len(r.spans) - 1
}

func (r *recorder) finish(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = time.Since(r.origin)
}

// call records fn as a child span of parent.
func (r *recorder) call(rank, parent int, name string, fn func()) {
	id := r.begin(rank, name, parent)
	fn()
	r.finish(id)
}

// selfSeconds sums, per span name, the self time of rank's spans: a
// span's duration minus the part its child spans cover.
func (r *recorder) selfSeconds(rank int) map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range r.spans {
		if s.rank == rank {
			out[s.name] += self[i].Seconds()
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, one track
// per rank.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.rank, Args: map[string]any{"workload": r.workload, "id": i, "parent": s.parent}}
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
