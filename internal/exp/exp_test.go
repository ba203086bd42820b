package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestBenchmarkSetShape(t *testing.T) {
	set := BenchmarkSet(1)
	if len(set) < 8 {
		t.Fatalf("benchmark set has %d instances", len(set))
	}
	social, mesh := 0, 0
	for _, inst := range set {
		switch inst.Type {
		case "S":
			social++
		case "M":
			mesh++
		default:
			t.Fatalf("instance %s has type %q", inst.Name, inst.Type)
		}
		g := inst.Gen(1)
		if g.NumNodes() < 1000 {
			t.Fatalf("instance %s too small: %d nodes", inst.Name, g.NumNodes())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("instance %s: %v", inst.Name, err)
		}
	}
	if social < 4 || mesh < 4 {
		t.Fatalf("set composition: %d social, %d mesh", social, mesh)
	}
}

func TestBenchmarkSetScale(t *testing.T) {
	small := BenchmarkSet(1)[0].Gen(1)
	big := BenchmarkSet(2)[0].Gen(1)
	if big.NumNodes() <= small.NumNodes() {
		t.Fatalf("scale 2 not larger: %d vs %d", big.NumNodes(), small.NumNodes())
	}
}

func TestRepeatAggregates(t *testing.T) {
	// Path of 12 nodes, k=2: a balanced half/half split cuts 1 edge; the
	// skewed 9/3 split cuts 1 edge but overloads block 0 (Lmax(12,2,0.03)=6).
	g := graph.Path(12)
	balanced := make([]int32, 12)
	skewed := make([]int32, 12)
	for v := 0; v < 12; v++ {
		if v >= 6 {
			balanced[v] = 1
		}
		if v >= 9 {
			skewed[v] = 1
		}
	}
	calls := 0
	st := repeat(g, 2, 0.03, 3, func(_ *graph.Graph, seed uint64) ([]int32, time.Duration, error) {
		calls++
		return balanced, 0, nil
	})
	if calls != 3 {
		t.Fatalf("runner called %d times", calls)
	}
	if st.BestCut != 1 || st.AvgCut != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Failed || !st.Feasible || st.WorstOverload != 0 {
		t.Fatalf("balanced run misreported: %+v", st)
	}

	st = repeat(g, 2, 0.03, 2, func(_ *graph.Graph, seed uint64) ([]int32, time.Duration, error) {
		return skewed, 0, nil
	})
	if st.Feasible || st.WorstOverload != 3 {
		t.Fatalf("skewed run: feasible=%v overload=%d, want false,3", st.Feasible, st.WorstOverload)
	}
}

// TestCheckShape feeds canned rows through the gate cmd/bench exits on.
func TestCheckShape(t *testing.T) {
	ok := AlgoStats{AvgCut: 100, BestCut: 100, Feasible: true}
	withCut := func(c float64) AlgoStats { a := ok; a.AvgCut = c; return a }
	stalled := AlgoStats{Failed: true, Reason: "memory"}
	cases := []struct {
		name                string
		baseline, fast, eco AlgoStats
		want                string // substring of the error; "" means pass
	}{
		{"clean", ok, withCut(95), withCut(90), ""},
		{"inside-tolerance", ok, withCut(100 * shapeTolerance), withCut(100 * shapeTolerance), ""},
		{"stalled-baseline-skipped", stalled, withCut(500), withCut(450), ""},
		{"fast-infeasible", ok, AlgoStats{AvgCut: 95, WorstOverload: 4}, withCut(90), "fast infeasible, worst overload 4"},
		{"eco-failed", ok, withCut(95), AlgoStats{Failed: true, Reason: "boom"}, "eco failed: boom"},
		{"fast-above-baseline", ok, withCut(120), withCut(110), "fast cut 120 above baseline cut 100"},
		{"eco-above-fast", ok, withCut(50), withCut(60), "eco cut 60 above fast cut 50"},
	}
	for _, c := range cases {
		rows := []TableRow{
			{Instance: Instance{Name: "good"}, Baseline: ok, Fast: ok, Eco: ok},
			{Instance: Instance{Name: c.name}, Baseline: c.baseline, Fast: c.fast, Eco: c.eco},
		}
		err := CheckShape(rows)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected failure: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: passed, want %q", c.name, c.want)
		} else if msg := err.Error(); !strings.Contains(msg, c.name+": "+c.want) || strings.Contains(msg, "good") {
			t.Errorf("%s: error %q, want only %q named with %q", c.name, msg, c.name, c.want)
		}
	}
}

func TestWriteTableRendersFailures(t *testing.T) {
	rows := []TableRow{{
		Instance: Instance{Name: "x", Type: "S"},
		N:        100, M: 200,
		Baseline: AlgoStats{Failed: true, Reason: "memory"},
		Fast:     AlgoStats{AvgCut: 10, BestCut: 8},
		Eco:      AlgoStats{AvgCut: 9, BestCut: 7},
	}}
	var buf bytes.Buffer
	WriteTable(&buf, "test", rows)
	out := buf.String()
	if !strings.Contains(out, "*") {
		t.Fatalf("failed baseline not rendered as *: %s", out)
	}
	if !strings.Contains(out, "x") {
		t.Fatal("instance name missing")
	}
}

func TestRunShrinkOnCommunityGraph(t *testing.T) {
	g, _ := gen.PlantedPartition(3000, 30, 10, 0.3, 1)
	rep := RunShrink("web", g, 2, core.ClassSocial, 1)
	if len(rep.ClusterLevels) < 2 {
		t.Fatalf("no cluster levels: %v", rep.ClusterLevels)
	}
	clusterShrink := float64(rep.ClusterLevels[0]) / float64(rep.ClusterLevels[1])
	if clusterShrink < 3 {
		t.Fatalf("cluster contraction shrink %.1fx too weak", clusterShrink)
	}
	if len(rep.MatchLevels) >= 2 {
		matchShrink := float64(rep.MatchLevels[0]) / float64(rep.MatchLevels[1])
		// Matching cannot beat 2x; cluster contraction should beat it
		// clearly on a community graph (the §V-B contrast).
		if matchShrink > 2.01 {
			t.Fatalf("matching shrink %.1fx exceeds the 2x bound", matchShrink)
		}
		if clusterShrink <= matchShrink {
			t.Fatalf("cluster %.1fx not better than matching %.1fx", clusterShrink, matchShrink)
		}
	}
	var buf bytes.Buffer
	WriteShrink(&buf, []ShrinkReport{rep})
	if !strings.Contains(buf.String(), "first-step shrink") {
		t.Fatal("shrink report missing summary line")
	}
}

func TestWeakScalingSmall(t *testing.T) {
	pts := RunWeakScaling([]int{1, 2}, 2048, 4, 1)
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	for _, pt := range pts {
		if pt.FastPerEdge <= 0 {
			t.Fatalf("missing fast time for %s p=%d", pt.Family, pt.PEs)
		}
		if pt.FastCut <= 0 {
			t.Fatalf("missing fast cut for %s p=%d", pt.Family, pt.PEs)
		}
	}
	var buf bytes.Buffer
	WriteWeakScaling(&buf, pts)
	if !strings.Contains(buf.String(), "rgg") {
		t.Fatal("weak scaling output missing family")
	}
}

func TestStrongScalingSmall(t *testing.T) {
	insts := []StrongInstance{
		{Name: "del", Class: 1, G: gen.DelaunayLike(4096, 5)},
	}
	pts := RunStrongScaling(insts, []int{1, 2}, 2, 1)
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, pt := range pts {
		if pt.FastTime <= 0 {
			t.Fatalf("missing time: %+v", pt)
		}
	}
	var buf bytes.Buffer
	WriteStrongScaling(&buf, pts)
	if !strings.Contains(buf.String(), "del") {
		t.Fatal("strong scaling output missing instance")
	}
}
