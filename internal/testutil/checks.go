package testutil

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// ValidatePartition checks that p has one entry per node of g and block
// IDs in [0, k).
func ValidatePartition(g *graph.Graph, p partition.Partition, k int32) error {
	if int32(len(p)) != g.NumNodes() {
		return fmt.Errorf("partition: %d entries for %d nodes", len(p), g.NumNodes())
	}
	for v, b := range p {
		if b < 0 || b >= k {
			return fmt.Errorf("partition: node %d has block %d outside [0,%d)", v, b, k)
		}
	}
	return nil
}

// Report summarizes a partition's quality.
type Report struct {
	K         int32
	Cut       int64
	Imbalance float64
	Boundary  int
	CommVol   int64
	Feasible  bool
}

// Evaluate computes a full quality report for p with imbalance bound eps.
func Evaluate(g *graph.Graph, p partition.Partition, k int32, eps float64) Report {
	return Report{
		K:         k,
		Cut:       partition.EdgeCut(g, p),
		Imbalance: partition.Imbalance(g, p, k),
		Boundary:  len(partition.BoundaryNodes(g, p)),
		CommVol:   partition.CommunicationVolume(g, p, k),
		Feasible:  partition.IsFeasible(g, p, k, eps),
	}
}

// String renders the report on one line.
func (r Report) String() string {
	return fmt.Sprintf("k=%d cut=%d imbalance=%.4f boundary=%d commvol=%d feasible=%v",
		r.K, r.Cut, r.Imbalance, r.Boundary, r.CommVol, r.Feasible)
}

// SpanNames returns the distinct span names on the given rank's track,
// sorted, as tr's Chrome trace export shows them.
func SpanNames(t testing.TB, tr *obs.Tracer, rank int) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph, Name string
			Tid      int
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Tid == rank {
			names = append(names, ev.Name)
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}
