package parhip_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestPartitionFingerprintOnce: a run's partition carries the fingerprint
// of the graph it was computed on, and takes a fingerprint noted on the
// graph instead of hashing it, as parhipd's jobs do; so does NewPartition.
func TestPartitionFingerprintOnce(t *testing.T) {
	g := gen.DelaunayLike(500, 1)
	run := func(g *parhip.Graph) *parhip.Partition {
		p, err := parhip.New(g, parhip.WithK(2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Partition
	}
	p := run(g)
	if got, want := p.GraphFingerprint(), parhip.Fingerprint(g); got != want {
		t.Fatalf("GraphFingerprint %s, want the graph's %s", got, want)
	}
	noted := gen.DelaunayLike(500, 1)
	graph.NoteFingerprint(noted, "noted")
	if got := run(noted).GraphFingerprint(); got != "noted" {
		t.Fatalf("GraphFingerprint %q after a run on a noted graph, want the note", got)
	}
	assign := make([]int32, p.NumNodes())
	for v := range assign {
		assign[v] = p.Block(int32(v))
	}
	q, err := parhip.NewPartition(noted, assign, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.GraphFingerprint(); got != "noted" {
		t.Fatalf("NewPartition: GraphFingerprint %q, want the note", got)
	}
}

// randomPartition builds a valid random Partition over g.
func randomPartition(t testing.TB, g *parhip.Graph, k int32, eps float64, rnd *rand.Rand) *parhip.Partition {
	t.Helper()
	assign := make([]int32, g.NumNodes())
	for i := range assign {
		assign[i] = rnd.Int31n(k)
	}
	p, err := parhip.NewPartition(g, assign, k, eps)
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	return p
}

// TestPartitionSerializationRoundTrip is the property test over both
// formats: write → read → write must be bit-identical, and the decoded
// value must agree with the original on every accessor.
func TestPartitionSerializationRoundTrip(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for iter := 0; iter < 25; iter++ {
		n := int32(2 + rnd.Intn(400))
		g := gen.DelaunayLike(n, uint64(iter+1))
		n = g.NumNodes()
		k := int32(1 + rnd.Intn(int(min32(n, 9))))
		eps := []float64{0.03, 0.1, 0.29, 1.5}[rnd.Intn(4)]
		p := randomPartition(t, g, k, eps, rnd)

		for _, format := range []string{"binary", "text"} {
			var first bytes.Buffer
			var err error
			if format == "binary" {
				_, err = p.WriteTo(&first)
			} else {
				_, err = p.WriteTextTo(&first)
			}
			if err != nil {
				t.Fatalf("%s write: %v", format, err)
			}
			q, err := parhip.ReadPartition(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatalf("%s read: %v", format, err)
			}
			var second bytes.Buffer
			if format == "binary" {
				_, err = q.WriteTo(&second)
			} else {
				_, err = q.WriteTextTo(&second)
			}
			if err != nil {
				t.Fatalf("%s rewrite: %v", format, err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("%s round trip not bit-identical (iter %d: n=%d k=%d eps=%g)",
					format, iter, n, k, eps)
			}
			if q.K() != p.K() || q.Eps() != p.Eps() || q.NumNodes() != p.NumNodes() ||
				q.Cut() != p.Cut() || q.Feasible() != p.Feasible() ||
				q.GraphFingerprint() != p.GraphFingerprint() ||
				q.Checksum() != p.Checksum() {
				t.Fatalf("%s round trip changed the value (iter %d)", format, iter)
			}
			for v := int32(0); v < q.NumNodes(); v++ {
				if q.Block(v) != p.Block(v) {
					t.Fatalf("%s round trip changed node %d's block", format, v)
				}
			}
			// The decoded partition must Validate against its own graph and
			// come out fully re-derived.
			if err := q.Validate(g); err != nil {
				t.Fatalf("%s: Validate after read: %v", format, err)
			}
			if q.Boundary(g) == nil && p.Cut() > 0 {
				t.Fatalf("%s: no boundary after Validate despite positive cut", format)
			}
		}
	}
}

// TestReadPartitionCrossFormat checks the sniffer: binary and text bytes of
// the same value decode to the same partition, and a legacy block-per-line
// body decodes with inferred k.
func TestReadPartitionCrossFormat(t *testing.T) {
	g := gen.DelaunayLike(200, 3)
	p := randomPartition(t, g, 5, 0.03, rand.New(rand.NewSource(7)))

	var bin, txt bytes.Buffer
	if _, err := p.WriteTo(&bin); err != nil {
		t.Fatal(err)
	}
	if _, err := p.WriteTextTo(&txt); err != nil {
		t.Fatal(err)
	}
	pb, err := parhip.ReadPartition(&bin)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := parhip.ReadPartition(&txt)
	if err != nil {
		t.Fatal(err)
	}
	if pb.Checksum() != pt.Checksum() {
		t.Fatal("binary and text decode to different partitions")
	}

	legacy := "0\n2\n1\n2\n0\n"
	pl, err := parhip.ReadPartition(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy decode: %v", err)
	}
	if pl.K() != 3 || pl.NumNodes() != 5 {
		t.Fatalf("legacy decode: k=%d n=%d, want k=3 n=5", pl.K(), pl.NumNodes())
	}
	if pl.Cut() != -1 {
		t.Fatalf("legacy decode invented a cut: %d", pl.Cut())
	}

	// ReadFrom (io.ReaderFrom form) matches ReadPartition.
	var q parhip.Partition
	var txt2 bytes.Buffer
	if _, err := p.WriteTextTo(&txt2); err != nil {
		t.Fatal(err)
	}
	if _, err := q.ReadFrom(&txt2); err != nil {
		t.Fatal(err)
	}
	if q.Checksum() != p.Checksum() {
		t.Fatal("ReadFrom decoded a different partition")
	}
}

// TestPartitionValidateRejections covers the strict Validate contract:
// wrong length, out-of-range blocks and fingerprint mismatches all fail.
func TestPartitionValidateRejections(t *testing.T) {
	g := gen.DelaunayLike(300, 4)
	p := randomPartition(t, g, 4, 0.03, rand.New(rand.NewSource(9)))

	// Wrong node count.
	small := gen.DelaunayLike(100, 4)
	if err := p.Validate(small); err == nil {
		t.Error("Validate accepted a graph with a different node count")
	}
	// Fingerprint mismatch: same node count, different edges.
	churned := gen.Perturb(g, 0.2, 5)
	if err := p.Validate(churned); err == nil {
		t.Error("Validate accepted a fingerprint-mismatched graph")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("fingerprint mismatch error does not say so: %v", err)
	}
	// The matching graph passes.
	if err := p.Validate(g); err != nil {
		t.Errorf("Validate rejected the source graph: %v", err)
	}

	// Out-of-range blocks: force them through the text format (NewPartition
	// refuses to construct such a partition directly).
	bad := textPartition(t, "%% parhip-partition v1\n% k 2\n0\n1\n5\n")
	if bad != nil {
		t.Error("decoder accepted a block outside [0, k)")
	}

	// A k beyond the node count would size the block-weight array Validate
	// binds; a file can claim any k up to MaxInt32.
	huge := textPartition(t, "%% parhip-partition v1\n% k 2147483647\n"+strings.Repeat("0\n", int(g.NumNodes())))
	if huge == nil {
		t.Fatal("decoder rejected a well-formed partition with a large k")
	}
	if err := huge.Validate(g); err == nil {
		t.Error("Validate accepted k = MaxInt32 on a small graph")
	}

	// NewPartition boundary validation.
	if _, err := parhip.NewPartition(g, make([]int32, 5), 4, 0.03); err == nil {
		t.Error("NewPartition accepted a wrong-length assignment")
	}
	assign := make([]int32, g.NumNodes())
	assign[0] = 4
	if _, err := parhip.NewPartition(g, assign, 4, 0.03); err == nil {
		t.Error("NewPartition accepted an out-of-range block")
	}
	if _, err := parhip.NewPartition(nil, assign, 4, 0.03); err == nil {
		t.Error("NewPartition accepted a nil graph")
	}
}

// TestNewPartitionKBound: NewPartition accepts exactly the k range that
// Validate accepts, [1, max(n, 1)], so no partition it builds fails its own
// Validate on the same graph.
func TestNewPartitionKBound(t *testing.T) {
	b := parhip.NewBuilder(10)
	for v := int32(0); v+1 < 10; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	zeros := make([]int32, g.NumNodes())
	if p, err := parhip.NewPartition(g, zeros, 11, 0); err == nil {
		t.Errorf("NewPartition accepted k = 11 for 10 nodes (Validate then says: %v)", p.Validate(g))
	} else if !strings.Contains(err.Error(), "k = 11 for 10 nodes") {
		t.Errorf("error %q does not name k and n", err)
	}
	p, err := parhip.NewPartition(g, zeros, 10, 0)
	if err != nil {
		t.Fatalf("NewPartition rejected k = n: %v", err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("Validate rejected what NewPartition built: %v", err)
	}
}

func textPartition(t *testing.T, body string) *parhip.Partition {
	t.Helper()
	p, err := parhip.ReadPartition(strings.NewReader(body))
	if err != nil {
		return nil
	}
	return p
}

// TestPartitionTruncatedBinary fuzzes truncation: every prefix of a valid
// binary encoding must fail to decode (no panics, no silent success).
func TestPartitionTruncatedBinary(t *testing.T) {
	g := gen.DelaunayLike(64, 6)
	p := randomPartition(t, g, 3, 0.03, rand.New(rand.NewSource(11)))
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 7 {
		if _, err := parhip.ReadPartition(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated binary partition (%d/%d bytes) decoded without error", cut, len(full))
		}
	}
}

// TestMigrationPlan covers the diff math, including weighted volume.
func TestMigrationPlan(t *testing.T) {
	b := parhip.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	g.NW[2] = 10 // weighted node

	prev, err := parhip.NewPartition(g, []int32{0, 0, 1, 1}, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	next, err := parhip.NewPartition(g, []int32{0, 1, 0, 1}, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := next.MigrationPlan(prev)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MigratedNodes != 2 || plan.TotalNodes != 4 {
		t.Fatalf("plan: %+v", plan)
	}
	if plan.MigrationVolume != 1+10 {
		t.Fatalf("volume = %d, want 11 (node 1 weight 1 + node 2 weight 10)", plan.MigrationVolume)
	}
	want := []parhip.Move{{Node: 1, From: 0, To: 1}, {Node: 2, From: 1, To: 0}}
	for i, m := range plan.Moves {
		if m != want[i] {
			t.Fatalf("move %d = %+v, want %+v", i, m, want[i])
		}
	}
	if _, err := next.MigrationPlan(nil); err == nil {
		t.Error("MigrationPlan accepted a nil previous partition")
	}
}

// TestMigrationPlanEdgeCases pins down the plan's boundary behavior:
// identical partitions diff to an empty plan, a k-change is a legitimate
// repartitioning (every resident of removed blocks moves), mismatched
// node counts are rejected, and cross-graph use is caught by Validate's
// fingerprint check (MigrationPlan itself only compares assignments).
func TestMigrationPlanEdgeCases(t *testing.T) {
	g := gen.DelaunayLike(64, 6)
	r := rand.New(rand.NewSource(17))
	p := randomPartition(t, g, 4, 0.2, r)

	// Identical partitions: zero moves, zero volume, full node count.
	assign := make([]int32, g.NumNodes())
	for v := range assign {
		assign[v] = p.Block(int32(v))
	}
	same, err := parhip.NewPartition(g, assign, 4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := same.MigrationPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MigratedNodes != 0 || plan.MigrationVolume != 0 || len(plan.Moves) != 0 {
		t.Fatalf("identical partitions produced a non-empty plan: %+v", plan)
	}
	if plan.TotalNodes != g.NumNodes() || plan.MigratedFraction() != 0 {
		t.Fatalf("empty plan totals wrong: %+v", plan)
	}

	// Repartitioning to a different k: blocks 4..7 are new, and the diff
	// must count exactly the nodes whose block changed.
	wider := make([]int32, g.NumNodes())
	changed := int64(0)
	for v := range wider {
		wider[v] = int32(v) % 8
		if wider[v] != p.Block(int32(v)) {
			changed++
		}
	}
	p8, err := parhip.NewPartition(g, wider, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = p8.MigrationPlan(p)
	if err != nil {
		t.Fatalf("k-change plan: %v", err)
	}
	if plan.MigratedNodes != changed {
		t.Fatalf("k-change plan counts %d moves, want %d", plan.MigratedNodes, changed)
	}
	for _, m := range plan.Moves {
		if m.From == m.To {
			t.Fatalf("plan lists a non-move: %+v", m)
		}
	}

	// Node-count mismatch is an error, both ways.
	small := gen.DelaunayLike(32, 6)
	ps := randomPartition(t, small, 4, 0.2, r)
	if _, err := p.MigrationPlan(ps); err == nil {
		t.Error("MigrationPlan accepted a smaller previous partition")
	}
	if _, err := ps.MigrationPlan(p); err == nil {
		t.Error("MigrationPlan accepted a larger previous partition")
	}

	// Same node count, different graph: MigrationPlan has no fingerprint
	// of its own, but Validate refuses to bind the partition to the other
	// graph, which is the documented guard for cross-graph confusion.
	other := gen.DelaunayLike(64, 7)
	if other.Fingerprint() == g.Fingerprint() {
		t.Fatal("test graphs unexpectedly identical")
	}
	if err := p.Validate(other); err == nil {
		t.Error("Validate bound a partition to a graph with a different fingerprint")
	}
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// TestPartitionDecoderHardening covers the corrupt-input guards: a huge
// node-count field must error (not panic), NaN/out-of-range eps is
// rejected in both formats, and an unbound partition survives a binary
// round trip without fabricating derived stats.
func TestPartitionDecoderHardening(t *testing.T) {
	g := gen.DelaunayLike(64, 6)
	p := randomPartition(t, g, 3, 0.03, rand.New(rand.NewSource(13)))
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// The node count is the 8 bytes before the assignment (64 * 4 bytes).
	corrupt := append([]byte(nil), full...)
	nOff := len(corrupt) - 64*4 - 8
	for i := 0; i < 8; i++ {
		corrupt[nOff+i] = 0xff
	}
	if _, err := parhip.ReadPartition(bytes.NewReader(corrupt)); err == nil {
		t.Error("decoder accepted an absurd node count")
	}

	// NaN eps, both formats.
	nan := append([]byte(nil), full...)
	for i, b := range []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f} { // little-endian float64 NaN
		nan[16+i] = b // magic(8) + version(4) + k(4) = offset 16
	}
	if _, err := parhip.ReadPartition(bytes.NewReader(nan)); err == nil {
		t.Error("binary decoder accepted NaN eps")
	}
	if q := textPartition(t, "%% parhip-partition v1\n% k 2\n% eps NaN\n0\n1\n"); q != nil {
		t.Error("text decoder accepted NaN eps")
	}
	if q := textPartition(t, "%% parhip-partition v1\n% k 2\n% eps 1e6\n0\n1\n"); q != nil {
		t.Error("text decoder accepted eps > MaxEps")
	}

	// k is a uint32 on the wire; above MaxInt32 it would read back negative.
	var negK bytes.Buffer
	negK.WriteString("PHPART1\n")
	// version, k, eps, fingerprint length, no derived stats, no nodes
	for _, x := range []any{uint32(1), uint32(1 << 31), uint64(0), uint32(0), uint8(0), uint64(0)} {
		binary.Write(&negK, binary.LittleEndian, x)
	}
	if q, err := parhip.ReadPartition(&negK); err == nil {
		t.Errorf("binary decoder accepted k = 2^31 as %d", q.K())
	}

	// An unbound (legacy) partition keeps Cut() == -1 through the binary
	// format instead of resurfacing as a fake cut of 0.
	legacy := textPartition(t, "0\n1\n0\n1\n")
	if legacy == nil || legacy.Cut() != -1 {
		t.Fatalf("legacy decode: %+v", legacy)
	}
	var bin bytes.Buffer
	if _, err := legacy.WriteTo(&bin); err != nil {
		t.Fatal(err)
	}
	back, err := parhip.ReadPartition(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cut() != -1 || back.Feasible() {
		t.Errorf("unbound partition gained fabricated derived stats: cut=%d feasible=%v",
			back.Cut(), back.Feasible())
	}
}

// FuzzReadPartition feeds arbitrary bytes to Partition.ReadFrom, the parser
// behind `parhip -prev`, and validates what it accepts against the graph
// the seeds were written for. A decoded partition must survive a binary
// round trip unchanged; one that validates must carry the cut and block
// weights NewPartition derives from its assignment, and survive a text
// round trip too.
func FuzzReadPartition(f *testing.F) {
	g := gen.DelaunayLike(12, 1)
	rnd := rand.New(rand.NewSource(5))
	for _, k := range []int32{1, 3} {
		var bin, text bytes.Buffer
		p := randomPartition(f, g, k, 0.03, rnd)
		if _, err := p.WriteTo(&bin); err != nil {
			f.Fatal(err)
		}
		if _, err := p.WriteTextTo(&text); err != nil {
			f.Fatal(err)
		}
		for _, enc := range [][]byte{bin.Bytes(), text.Bytes()} {
			f.Add(enc)
			f.Add(enc[:len(enc)/2])
			f.Add(enc[:len(enc)-1])
		}
	}
	f.Add([]byte("0\n1\n0\n1\n"))
	f.Add([]byte("%% parhip-partition v1\n% k 2147483647\n" + strings.Repeat("0\n", int(g.NumNodes()))))
	f.Fuzz(func(t *testing.T, in []byte) {
		var p parhip.Partition
		if _, err := p.ReadFrom(bytes.NewReader(in)); err != nil {
			return
		}
		roundTrip := func(write func(*parhip.Partition, io.Writer) (int64, error)) *parhip.Partition {
			var buf bytes.Buffer
			if _, err := write(&p, &buf); err != nil {
				t.Fatal(err)
			}
			q, err := parhip.ReadPartition(&buf)
			if err != nil {
				t.Fatalf("rereading the written partition: %v", err)
			}
			if q.Checksum() != p.Checksum() || q.Eps() != p.Eps() || q.Cut() != p.Cut() {
				t.Fatalf("round trip changed the partition: k %d -> %d, eps %v -> %v, cut %d -> %d",
					p.K(), q.K(), p.Eps(), q.Eps(), p.Cut(), q.Cut())
			}
			return q
		}
		roundTrip((*parhip.Partition).WriteTo)
		if err := p.Validate(g); err != nil {
			return
		}
		assign := make([]int32, p.NumNodes())
		for v := range assign {
			assign[v] = p.Block(int32(v))
		}
		want, err := parhip.NewPartition(g, assign, p.K(), p.Eps())
		if err != nil {
			t.Fatalf("validated partition rejected by NewPartition: %v", err)
		}
		if p.Cut() != want.Cut() || !slices.Equal(p.BlockWeights(), want.BlockWeights()) {
			t.Fatalf("validated cut %d, block weights %v; recount %d, %v",
				p.Cut(), p.BlockWeights(), want.Cut(), want.BlockWeights())
		}
		roundTrip((*parhip.Partition).WriteTextTo)
	})
}
