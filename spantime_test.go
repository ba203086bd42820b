package parhip

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
)

// rank0SpanSums parses a tracer's Chrome trace JSON and sums the durations
// of rank 0's spans per name, in nanoseconds (the document prints
// microseconds with three decimals, so the sum is exact).
func rank0SpanSums(t *testing.T, tr *Tracer) map[string]time.Duration {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	sums := map[string]time.Duration{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Tid == 0 {
			sums[ev.Name] += time.Duration(math.Round(ev.Dur * 1e3))
		}
	}
	return sums
}

// TestStatsTimesAreSpanTimes checks that a run's phase times are its span
// durations: on rank 0 of a traced P=2 run, every Stats time equals the sum
// of the matching spans' dur in the written trace, to the nanosecond, for
// the main partitioner and for the baseline.
func TestStatsTimesAreSpanTimes(t *testing.T) {
	g, err := gen.ByFamily(gen.FamilyWeb, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, tr *Tracer, st core.Stats, prefix string) {
		sums := rank0SpanSums(t, tr)
		for _, c := range []struct {
			span string
			got  time.Duration
		}{
			{"partition", st.TotalTime},
			{"coarsen", st.CoarsenTime},
			{"initial_partition", st.InitTime},
			{"refine", st.RefineTime},
			{"rebalance", st.RebalanceTime},
		} {
			if prefix == "matchbase." && c.span == "rebalance" {
				continue // the baseline has no rebalance stage
			}
			if want := sums[prefix+c.span]; c.got != want {
				t.Errorf("Stats time of %s%s = %v, its spans sum to %v", prefix, c.span, c.got, want)
			}
		}
		if st.TotalTime <= 0 || st.CoarsenTime <= 0 || st.InitTime <= 0 || st.RefineTime <= 0 {
			t.Errorf("%s run left a phase time at 0: %+v", prefix, st)
		}
	}
	t.Run("core", func(t *testing.T) {
		tr := NewTracer(2)
		res, err := runSession(g, WithK(4), WithPEs(2), WithSeed(1), WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		check(t, tr, res.Stats, "core.")
	})
	t.Run("matchbase", func(t *testing.T) {
		tr := NewTracer(2)
		res, err := RunBaseline(context.Background(), g, 0, WithK(4), WithPEs(2), WithSeed(1), WithTracer(tr))
		if err != nil {
			t.Fatal(err)
		}
		check(t, tr, res.Stats, "matchbase.")
	})
}
