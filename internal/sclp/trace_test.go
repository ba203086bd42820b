package sclp

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// TestParClusterTraced runs clustering under an enabled tracer and checks
// every rank's track carries superstep and exchange spans, and that the
// serialized trace is valid Chrome trace-event JSON — the acceptance
// criterion that a traced run opens in Perfetto with per-rank sclp tracks.
func TestParClusterTraced(t *testing.T) {
	g, _ := gen.PlantedPartition(2000, 50, 4, 0.5, 11)
	const P = 4
	tr := obs.NewTracer(P)
	w := mpi.NewWorld(P)
	w.SetTracer(tr)
	w.Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		ParCluster(d, ParClusterConfig{U: 600, Iterations: 2, PhasesPerRound: 4, Seed: 5})
	})
	for rank := 0; rank < P; rank++ {
		names := strings.Join(testutil.SpanNames(t, tr, rank), ",")
		for _, want := range []string{"sclp.cluster_superstep", "dgraph.push_ghosts", "mpi.neighbor_alltoallv"} {
			if !strings.Contains(names, want) {
				t.Errorf("rank %d track lacks %q spans (has: %s)", rank, want, names)
			}
		}
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatal("traceEvents missing or not an array")
	}
}
