package partition_test

import (
	"math"
	"math/big"
	"slices"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/testutil"
)

func twoBlocksOfPath(n int32) (*graph.Graph, partition.Partition) {
	g := graph.Path(n)
	p := make(partition.Partition, n)
	for v := n / 2; v < n; v++ {
		p[v] = 1
	}
	return g, p
}

func TestEdgeCutPath(t *testing.T) {
	g, p := twoBlocksOfPath(10)
	if cut := partition.EdgeCut(g, p); cut != 1 {
		t.Fatalf("cut = %d, want 1", cut)
	}
}

func TestEdgeCutAllOneBlock(t *testing.T) {
	g := testutil.Complete(8)
	p := make(partition.Partition, 8)
	if cut := partition.EdgeCut(g, p); cut != 0 {
		t.Fatalf("cut = %d, want 0", cut)
	}
}

func TestEdgeCutWeighted(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdgeW(0, 1, 7)
	g := b.Build()
	p := partition.Partition{0, 1}
	if cut := partition.EdgeCut(g, p); cut != 7 {
		t.Fatalf("cut = %d, want 7", cut)
	}
}

func TestBlockWeights(t *testing.T) {
	g, p := twoBlocksOfPath(10)
	bw := partition.BlockWeights(g, p, 2)
	if bw[0] != 5 || bw[1] != 5 {
		t.Fatalf("block weights = %v", bw)
	}
}

func TestLmax(t *testing.T) {
	// total 100, k=4, eps=0.03: ceil(100/4)=25, 25*1.03=25.75 -> 25
	if l := partition.Lmax(100, 4, 0.03); l != 25 {
		t.Fatalf("Lmax = %d, want 25", l)
	}
	// total 10, k=3: ceil=4, 4*1.03=4.12 -> 4
	if l := partition.Lmax(10, 3, 0.03); l != 4 {
		t.Fatalf("Lmax = %d, want 4", l)
	}
	if l := partition.Lmax(100, 2, 0.5); l != 75 {
		t.Fatalf("Lmax = %d, want 75", l)
	}
}

func TestImbalance(t *testing.T) {
	g, p := twoBlocksOfPath(10)
	if im := partition.Imbalance(g, p, 2); im != 0 {
		t.Fatalf("imbalance = %v, want 0", im)
	}
	p2 := make(partition.Partition, 10) // everything in block 0, k=2
	if im := partition.Imbalance(g, p2, 2); im != 1 {
		t.Fatalf("imbalance = %v, want 1", im)
	}
}

func TestIsFeasible(t *testing.T) {
	g, p := twoBlocksOfPath(10)
	if !partition.IsFeasible(g, p, 2, 0.03) {
		t.Fatal("balanced bipartition should be feasible")
	}
	p2 := make(partition.Partition, 10)
	if partition.IsFeasible(g, p2, 2, 0.03) {
		t.Fatal("everything-in-one-block should be infeasible")
	}
	p3 := slices.Clone(p)
	p3[0] = 5
	if partition.IsFeasible(g, p3, 2, 0.03) {
		t.Fatal("out-of-range block should be infeasible")
	}
}

func TestBoundaryNodes(t *testing.T) {
	g, p := twoBlocksOfPath(10)
	bn := partition.BoundaryNodes(g, p)
	if len(bn) != 2 || bn[0] != 4 || bn[1] != 5 {
		t.Fatalf("boundary = %v, want [4 5]", bn)
	}
}

func TestCommunicationVolume(t *testing.T) {
	g, p := twoBlocksOfPath(10)
	// Nodes 4 and 5 each see one foreign block.
	if cv := partition.CommunicationVolume(g, p, 2); cv != 2 {
		t.Fatalf("comm vol = %d, want 2", cv)
	}
	// Star with leaves alternating blocks: hub sees 1 foreign block (hub in
	// block 0, half the leaves in block 1), each block-1 leaf sees 1.
	s := testutil.Star(5)
	sp := partition.Partition{0, 1, 0, 1, 0}
	if cv := partition.CommunicationVolume(s, sp, 2); cv != 3 {
		t.Fatalf("star comm vol = %d, want 3", cv)
	}
}

func TestMaxQuotientDegree(t *testing.T) {
	g, p := twoBlocksOfPath(10)
	if d := partition.MaxQuotientDegree(g, p, 2); d != 1 {
		t.Fatalf("path bipartition max quotient degree = %d", d)
	}
	// Star with hub in block 0 and leaves in blocks 1..4: block 0 touches 4
	// blocks.
	s := testutil.Star(5)
	sp := partition.Partition{0, 1, 2, 3, 0}
	if d := partition.MaxQuotientDegree(s, sp, 4); d != 3 {
		t.Fatalf("star max quotient degree = %d, want 3", d)
	}
	// Single block: degree 0.
	if d := partition.MaxQuotientDegree(g, make(partition.Partition, 10), 2); d != 0 {
		t.Fatalf("single-block quotient degree = %d", d)
	}
}

func TestMaxCommVolume(t *testing.T) {
	g, p := twoBlocksOfPath(10)
	// Each block sends exactly one (node, block) pair.
	if v := partition.MaxCommVolume(g, p, 2); v != 1 {
		t.Fatalf("path max comm volume = %d", v)
	}
	// The max is bounded by the total.
	s := testutil.Star(6)
	sp := partition.Partition{0, 1, 1, 0, 1, 0}
	if mx, tot := partition.MaxCommVolume(s, sp, 2), partition.CommunicationVolume(s, sp, 2); mx > tot {
		t.Fatalf("max %d exceeds total %d", mx, tot)
	}
}

func TestValidatePartition(t *testing.T) {
	g := graph.Path(5)
	if err := testutil.ValidatePartition(g, make(partition.Partition, 5), 2); err != nil {
		t.Fatal(err)
	}
	if err := testutil.ValidatePartition(g, make(partition.Partition, 4), 2); err == nil {
		t.Fatal("expected error for wrong length")
	}
	bad := make(partition.Partition, 5)
	bad[2] = 7
	if err := testutil.ValidatePartition(g, bad, 2); err == nil {
		t.Fatal("expected error for out-of-range block")
	}
}

func TestWordsRoundTrip(t *testing.T) {
	p := partition.Partition{0, 5, -1, 1 << 20}
	got := partition.FromWords(p.Words())
	for i := range p {
		if got[i] != p[i] {
			t.Fatalf("words roundtrip %v -> %v", p, got)
		}
	}
}

func TestEvaluateReport(t *testing.T) {
	g, p := twoBlocksOfPath(10)
	rep := testutil.Evaluate(g, p, 2, 0.03)
	if rep.Cut != 1 || !rep.Feasible || rep.Boundary != 2 {
		t.Fatalf("report %+v", rep)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

// refLmax computes floor((1+eps)*ceil(total/k)) with exact rational
// arithmetic, interpreting eps as its shortest round-trip decimal — the
// reference the production Lmax must match.
func refLmax(total int64, k int32, eps float64) int64 {
	ceil := (total + int64(k) - 1) / int64(k)
	r := new(big.Rat)
	if _, ok := r.SetString(strconv.FormatFloat(eps, 'g', -1, 64)); !ok {
		r.SetFloat64(eps)
	}
	r.Add(r, big.NewRat(1, 1))
	r.Mul(r, new(big.Rat).SetInt64(ceil))
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if !q.IsInt64() {
		return math.MaxInt64
	}
	return q.Int64()
}

// TestLmaxExactRegression covers the float64 truncation bug: the old
// int64((1+eps)*float64(ceil)) formula lost a unit whenever the binary
// rounding of 1+eps fell just below the decimal product (eps=0.29,
// ceil=100 gave 128 instead of 129) and was wrong wholesale above 2^53.
func TestLmaxExactRegression(t *testing.T) {
	epsTable := []float64{0.03, 0.07, 0.29, 0.5}
	totals := []int64{10, 100, 400, 999, 12345, 1_000_000,
		1 << 40, 1<<53 + 1, 1 << 60, math.MaxInt64 / 2}
	ks := []int32{1, 2, 3, 4, 7, 32, 127}
	for _, eps := range epsTable {
		for _, total := range totals {
			for _, k := range ks {
				got := partition.Lmax(total, k, eps)
				want := refLmax(total, k, eps)
				if got != want {
					t.Errorf("partition.Lmax(%d, %d, %g) = %d, want %d", total, k, eps, got, want)
				}
			}
		}
	}
	// The motivating case from the issue: eps=0.29, ceil=100.
	if got := partition.Lmax(400, 4, 0.29); got != 129 {
		t.Errorf("partition.Lmax(400, 4, 0.29) = %d, want 129 (old float path gave 128)", got)
	}
	// Beyond 2^53 the float path could not even represent the ceil exactly.
	if got, want := partition.Lmax(1<<60, 1, 0.5), int64(1<<60+1<<59); got != want {
		t.Errorf("partition.Lmax(2^60, 1, 0.5) = %d, want %d", got, want)
	}
}

func TestLmaxRandomAgainstBigRat(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 3000; i++ {
		total := int64(r.Uint64() >> (1 + r.Intn(50)))
		k := int32(1 + r.Intn(512))
		// Decimal-ish eps values of varying precision, plus raw floats.
		var eps float64
		switch r.Intn(3) {
		case 0:
			eps = float64(r.Intn(1000)) / 1000
		case 1:
			eps = float64(r.Intn(100)) / 100
		default:
			eps = float64(r.Uint64()%(1<<30)) / float64(1<<31)
		}
		got := partition.Lmax(total, k, eps)
		want := refLmax(total, k, eps)
		if got != want {
			t.Fatalf("partition.Lmax(%d, %d, %v) = %d, want %d", total, k, eps, got, want)
		}
	}
}

func TestLmaxDegenerateEps(t *testing.T) {
	if got := partition.Lmax(100, 4, 0); got != 25 {
		t.Errorf("eps=0: got %d, want 25", got)
	}
	if got := partition.Lmax(100, 4, -1); got != 25 {
		t.Errorf("eps<0: got %d, want 25", got)
	}
	if got := partition.Lmax(100, 4, math.NaN()); got != 25 {
		t.Errorf("eps=NaN: got %d, want 25", got)
	}
	if got := partition.Lmax(100, 4, math.Inf(1)); got != math.MaxInt64 {
		t.Errorf("eps=+Inf: got %d, want MaxInt64", got)
	}
	// Tiny eps beyond the int64 decimal range takes the big.Rat fallback.
	if got, want := partition.Lmax(1<<60, 1, 1e-300), int64(1<<60); got != want {
		t.Errorf("eps=1e-300: got %d, want %d", got, want)
	}
}

func TestWorstOverload(t *testing.T) {
	g, p := twoBlocksOfPath(10)
	if o := partition.WorstOverload(g, p, 2, 0.03); o != 0 {
		t.Fatalf("balanced overload = %d, want 0", o)
	}
	q := make(partition.Partition, 10) // everything in block 0 of 2: weight 10 vs partition.Lmax(10,2,0.03)=5
	if o := partition.WorstOverload(g, q, 2, 0.03); o != 5 {
		t.Fatalf("overload = %d, want 5", o)
	}
}
