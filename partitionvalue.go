package parhip

// This file defines Partition, the first-class result value of the API:
// a k-way block assignment together with the derived state callers
// otherwise recompute by hand (block weights, cut, feasibility) and the
// fingerprint of the graph it was computed on. Partitions serialize to a
// versioned binary and a versioned text format, survive a save → mutate
// graph → Repartition round trip, and can diff themselves against a
// previous partition into a MigrationPlan.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/partition"
)

// NodeID identifies a node of a Graph (dense in [0, n)).
type NodeID = int32

// Partition is a first-class k-way partition of a graph: the per-node block
// assignment plus derived state (block weights, edge cut, feasibility) and
// the content fingerprint of the graph it was computed on. Construct one by
// running a Partitioner session, with NewPartition from a raw assignment at
// the API boundary, or with ReadPartition from a serialized form. The zero
// value is empty and invalid; Partition values are immutable once built.
type Partition struct {
	assign []int32
	k      int32
	eps    float64
	fp     string // fingerprint of the source graph ("" when unknown)

	// Derived state. hasDerived is false for partitions deserialized from a
	// headerless (legacy block-per-line) file until Validate binds a graph.
	hasDerived   bool
	cut          int64
	feasible     bool
	blockWeights []int64

	// Node weights of the graph the partition was computed on (or last
	// Validated against), never serialized. Nil for deserialized,
	// unvalidated partitions.
	nw []int64
}

// NewPartition wraps a raw block assignment into a Partition value bound to
// g, computing all derived state. It is the sanctioned adapter from the raw
// representation at API boundaries (file parsers, wire handlers); library
// results are already Partition values. The assignment is copied; it must
// have one entry per node of g with blocks in [0, k), and eps records the
// balance bound the partition is judged against (0 selects DefaultEps).
func NewPartition(g *Graph, assignment []int32, k int32, eps float64) (*Partition, error) {
	if g == nil {
		return nil, errors.New("parhip: NewPartition: nil graph")
	}
	// bind allocates k block weights, so k is bounded like in Validate.
	if k < 1 || k > max(g.NumNodes(), 1) {
		return nil, fmt.Errorf("parhip: NewPartition: partition has k = %d for %d nodes", k, g.NumNodes())
	}
	if eps < 0 || eps > MaxEps {
		return nil, fmt.Errorf("parhip: NewPartition: eps = %g outside [0, %g]", eps, MaxEps)
	}
	if eps == 0 {
		eps = DefaultEps
	}
	if int32(len(assignment)) != g.NumNodes() {
		return nil, fmt.Errorf("parhip: NewPartition: %d entries for %d nodes",
			len(assignment), g.NumNodes())
	}
	for v, b := range assignment {
		if b < 0 || b >= k {
			return nil, fmt.Errorf("parhip: NewPartition: node %d has block %d outside [0,%d)", v, b, k)
		}
	}
	p := &Partition{
		assign: append([]int32(nil), assignment...),
		k:      k,
		eps:    eps,
	}
	p.bind(g, fingerprintOf(g))
	return p, nil
}

// fingerprintOf returns the fingerprint noted on g (graph.NoteFingerprint)
// or, when there is none, hashes g.
func fingerprintOf(g *Graph) string {
	if fp := graph.NotedFingerprint(g); fp != "" {
		return fp
	}
	return g.Fingerprint()
}

// bind (re)computes every graph-derived field of p from g, whose
// fingerprint the caller has already computed as fp.
func (p *Partition) bind(g *Graph, fp string) {
	p.fp = fp
	p.cut = partition.EdgeCut(g, p.assign)
	p.blockWeights = partition.BlockWeights(g, p.assign, p.k)
	p.feasible = partition.IsFeasible(g, p.assign, p.k, p.eps)
	p.nw = g.NW
	p.hasDerived = true
}

// K returns the number of blocks.
func (p *Partition) K() int32 { return p.k }

// Eps returns the imbalance bound the partition is judged against.
func (p *Partition) Eps() float64 { return p.eps }

// NumNodes returns the number of nodes the partition assigns.
func (p *Partition) NumNodes() int32 { return int32(len(p.assign)) }

// Block returns the block of node v.
func (p *Partition) Block(v NodeID) int32 { return p.assign[v] }

// BlockWeights returns a copy of the per-block node weights, or nil when
// the partition has not been bound to a graph (deserialized from a
// headerless file and not yet Validated).
func (p *Partition) BlockWeights() []int64 {
	if p.blockWeights == nil {
		return nil
	}
	return append([]int64(nil), p.blockWeights...)
}

// Cut returns the weight of edges crossing between blocks, or -1 when
// unknown (see BlockWeights).
func (p *Partition) Cut() int64 {
	if !p.hasDerived {
		return -1
	}
	return p.cut
}

// Feasible reports whether every block respects the balance bound
// (1+eps)*ceil(W/k). It is false when the partition has not been bound to a
// graph.
func (p *Partition) Feasible() bool { return p.hasDerived && p.feasible }

// Imbalance returns max block weight over average block weight, minus 1, or
// -1 when unknown.
func (p *Partition) Imbalance() float64 {
	if len(p.blockWeights) == 0 {
		return -1
	}
	var total, mx int64
	for _, w := range p.blockWeights {
		total += w
		if w > mx {
			mx = w
		}
	}
	if total == 0 {
		return 0
	}
	return float64(mx)/(float64(total)/float64(p.k)) - 1
}

// GraphFingerprint returns the content fingerprint of the graph the
// partition was computed on ("" when unknown). Validate compares it against
// the presented graph.
func (p *Partition) GraphFingerprint() string { return p.fp }

// Boundary returns the boundary nodes of the partition on g — nodes with
// at least one neighbour in a different block — in node order. Like
// CommunicationVolume it is computed on demand, and it panics unless g has
// one node per entry of the assignment.
func (p *Partition) Boundary(g *Graph) []NodeID {
	mustAssign("Boundary", g, len(p.assign))
	return partition.BoundaryNodes(g, p.assign)
}

// Checksum returns a short stable content hash over the assignment and
// block count — the identity of the partition itself, independent of the
// graph. parhipd keys its repartition cache on (graph fingerprint, previous
// partition checksum, options).
func (p *Partition) Checksum() string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.k))
	h.Write(buf[:])
	for _, b := range p.assign {
		binary.LittleEndian.PutUint32(buf[:4], uint32(b))
		h.Write(buf[:4])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Validate checks p against g: the assignment must have one entry per node,
// k must lie in [1, max(n, 1)], every block must lie in [0, k), and — when
// the partition carries a graph fingerprint — the fingerprint must match
// g's. On success the partition is (re)bound to g: cut, block weights and
// feasibility are recomputed, so a partition read from disk becomes fully
// derived. To reuse a partition on a *changed* graph, pass it to
// Repartition instead; Validate is the strict same-graph check.
func (p *Partition) Validate(g *Graph) error {
	if g == nil {
		return errors.New("parhip: Partition.Validate: nil graph")
	}
	if int32(len(p.assign)) != g.NumNodes() {
		return fmt.Errorf("parhip: partition has %d entries for %d nodes",
			len(p.assign), g.NumNodes())
	}
	// bind allocates k block weights; a file may claim any k.
	if p.k < 1 || p.k > max(g.NumNodes(), 1) {
		return fmt.Errorf("parhip: partition has k = %d for %d nodes", p.k, g.NumNodes())
	}
	for v, b := range p.assign {
		if b < 0 || b >= p.k {
			return fmt.Errorf("parhip: node %d has block %d outside [0,%d)", v, b, p.k)
		}
	}
	fp := g.Fingerprint()
	if p.fp != "" && fp != p.fp {
		return fmt.Errorf("parhip: partition was computed on a different graph (fingerprint %.12s… != %.12s…)",
			p.fp, fp)
	}
	p.bind(g, fp)
	return nil
}

// Move is one node's relocation between two partitions.
type Move struct {
	Node NodeID
	From int32 // block in the previous partition
	To   int32 // block in the new partition
}

// MigrationPlan describes what it costs to move a system from a previous
// partition to a new one: the per-node moves, their count, and the total
// migrated node weight.
type MigrationPlan struct {
	// Moves lists every node whose block changed, in node order.
	Moves []Move
	// MigratedNodes is len(Moves) as an int64 (convenient for stats).
	MigratedNodes int64
	// MigrationVolume is the total node weight of the moved nodes — the
	// data volume a serving system must reshuffle. When neither partition
	// is bound to a graph it falls back to the node count.
	MigrationVolume int64
	// TotalNodes is the number of nodes in the partitions.
	TotalNodes int32
}

// MigratedFraction returns MigratedNodes / TotalNodes.
func (mp *MigrationPlan) MigratedFraction() float64 {
	if mp.TotalNodes == 0 {
		return 0
	}
	return float64(mp.MigratedNodes) / float64(mp.TotalNodes)
}

// MigrationPlan diffs p against a previous partition of the same node set
// and returns the moves needed to migrate from prev to p. The block counts
// may differ (repartitioning to a new k is a valid scenario); the node
// counts must match.
func (p *Partition) MigrationPlan(prev *Partition) (*MigrationPlan, error) {
	if prev == nil {
		return nil, errors.New("parhip: MigrationPlan: nil previous partition")
	}
	if len(p.assign) != len(prev.assign) {
		return nil, fmt.Errorf("parhip: MigrationPlan: %d nodes now vs %d previously",
			len(p.assign), len(prev.assign))
	}
	nw := p.nw
	if nw == nil {
		nw = prev.nw
	}
	mp := &MigrationPlan{TotalNodes: int32(len(p.assign))}
	for v := range p.assign {
		if p.assign[v] == prev.assign[v] {
			continue
		}
		mp.Moves = append(mp.Moves, Move{Node: NodeID(v), From: prev.assign[v], To: p.assign[v]})
		if nw != nil {
			mp.MigrationVolume += nw[v]
		} else {
			mp.MigrationVolume++
		}
	}
	mp.MigratedNodes = int64(len(mp.Moves))
	return mp, nil
}

// --- serialization ------------------------------------------------------

// partitionMagic opens the versioned binary partition format.
var partitionMagic = [8]byte{'P', 'H', 'P', 'A', 'R', 'T', '1', '\n'}

// textHeader opens the versioned text partition format.
const textHeader = "%% parhip-partition v1"

// WriteTo writes the versioned binary partition format (magic, version, k,
// eps, graph fingerprint, derived stats, assignment; all little-endian).
// It implements io.WriterTo. The encoding is deterministic: equal
// partitions serialize to identical bytes.
func (p *Partition) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.Write(partitionMagic[:])
	le := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		buf.Write(b[:])
	}
	le32 := func(x uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], x)
		buf.Write(b[:])
	}
	le32(1) // version
	le32(uint32(p.k))
	le(math.Float64bits(p.eps))
	le32(uint32(len(p.fp)))
	buf.WriteString(p.fp)
	// Derived stats are written only when actually derived — a partition
	// read from a legacy headerless file and not yet Validated must not
	// come back with a fabricated cut of 0.
	if p.hasDerived {
		buf.WriteByte(1)
		le(uint64(p.cut))
		if p.feasible {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		le32(uint32(len(p.blockWeights)))
		for _, bw := range p.blockWeights {
			le(uint64(bw))
		}
	} else {
		buf.WriteByte(0)
	}
	le(uint64(len(p.assign)))
	for _, b := range p.assign {
		le32(uint32(b))
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// WriteTextTo writes the versioned text partition format: a '%%' header
// line, '%'-prefixed metadata lines, then one block per node per line. The
// body is compatible with legacy block-per-line partition files (parsers
// that skip '%' comments read it unchanged). It is deterministic like
// WriteTo.
func (p *Partition) WriteTextTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	buf.WriteString(textHeader + "\n")
	fmt.Fprintf(&buf, "%% k %d\n", p.k)
	fmt.Fprintf(&buf, "%% eps %s\n", strconv.FormatFloat(p.eps, 'g', -1, 64))
	if p.fp != "" {
		fmt.Fprintf(&buf, "%% graph %s\n", p.fp)
	}
	if p.hasDerived {
		fmt.Fprintf(&buf, "%% cut %d\n", p.cut)
		fmt.Fprintf(&buf, "%% feasible %v\n", p.feasible)
	}
	if len(p.blockWeights) > 0 {
		buf.WriteString("% blockweights")
		for _, bw := range p.blockWeights {
			buf.WriteByte(' ')
			buf.WriteString(strconv.FormatInt(bw, 10))
		}
		buf.WriteByte('\n')
	}
	for _, b := range p.assign {
		buf.WriteString(strconv.Itoa(int(b)))
		buf.WriteByte('\n')
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// ReadPartition reads a partition in any supported format, sniffed from the
// content: the versioned binary format, the versioned text format, or a
// legacy block-per-line file (for which k is inferred as max block + 1 and
// derived state stays unknown until Validate).
func ReadPartition(r io.Reader) (*Partition, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("parhip: read partition: %w", err)
	}
	p := &Partition{}
	if err := p.decode(data); err != nil {
		return nil, err
	}
	return p, nil
}

// ReadFrom replaces p's contents with a partition read from r (any
// supported format, see ReadPartition). It implements io.ReaderFrom.
func (p *Partition) ReadFrom(r io.Reader) (int64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return int64(len(data)), fmt.Errorf("parhip: read partition: %w", err)
	}
	if err := p.decode(data); err != nil {
		return int64(len(data)), err
	}
	return int64(len(data)), nil
}

func (p *Partition) decode(data []byte) error {
	if len(data) >= len(partitionMagic) && bytes.Equal(data[:len(partitionMagic)], partitionMagic[:]) {
		return p.decodeBinary(data[len(partitionMagic):])
	}
	return p.decodeText(data)
}

func (p *Partition) decodeBinary(b []byte) error {
	off := 0
	u32 := func() (uint32, error) {
		if off+4 > len(b) {
			return 0, errors.New("parhip: truncated binary partition")
		}
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v, nil
	}
	u64 := func() (uint64, error) {
		if off+8 > len(b) {
			return 0, errors.New("parhip: truncated binary partition")
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v, nil
	}
	version, err := u32()
	if err != nil {
		return err
	}
	if version != 1 {
		return fmt.Errorf("parhip: unsupported partition format version %d", version)
	}
	k, err := u32()
	if err != nil {
		return err
	}
	epsBits, err := u64()
	if err != nil {
		return err
	}
	if !validEps(math.Float64frombits(epsBits)) {
		return fmt.Errorf("parhip: partition has eps = %g outside [0, %g]",
			math.Float64frombits(epsBits), MaxEps)
	}
	fpLen, err := u32()
	if err != nil {
		return err
	}
	if fpLen > uint32(len(b)-off) {
		return errors.New("parhip: truncated binary partition")
	}
	fp := string(b[off : off+int(fpLen)])
	off += int(fpLen)
	if off >= len(b) {
		return errors.New("parhip: truncated binary partition")
	}
	derived := b[off] != 0
	off++
	var (
		cut      uint64
		feasible bool
		bw       []int64
	)
	if derived {
		cut, err = u64()
		if err != nil {
			return err
		}
		if off >= len(b) {
			return errors.New("parhip: truncated binary partition")
		}
		feasible = b[off] != 0
		off++
		nbw, err := u32()
		if err != nil {
			return err
		}
		if nbw > 0 {
			if int64(nbw) != int64(k) {
				return fmt.Errorf("parhip: partition has %d block weights for k=%d", nbw, k)
			}
			if uint64(nbw) > uint64(len(b)-off)/8 {
				return errors.New("parhip: truncated binary partition")
			}
			bw = make([]int64, nbw)
			for i := range bw {
				x, err := u64()
				if err != nil {
					return err
				}
				bw[i] = int64(x)
			}
		}
	}
	n, err := u64()
	if err != nil {
		return err
	}
	// Divide instead of multiplying: 4*n overflows uint64 for a corrupt n,
	// which would slip past the bound and panic in make below.
	if n > uint64(len(b)-off)/4 {
		return errors.New("parhip: truncated binary partition")
	}
	if k < 1 || k > math.MaxInt32 {
		return fmt.Errorf("parhip: partition has k = %d", k)
	}
	assign := make([]int32, n)
	for i := range assign {
		v, err := u32()
		if err != nil {
			return err
		}
		assign[i] = int32(v)
		if assign[i] < 0 || assign[i] >= int32(k) {
			return fmt.Errorf("parhip: node %d has block %d outside [0,%d)", i, assign[i], k)
		}
	}
	if off != len(b) {
		return fmt.Errorf("parhip: %d trailing bytes after binary partition", len(b)-off)
	}
	*p = Partition{
		assign:       assign,
		k:            int32(k),
		eps:          math.Float64frombits(epsBits),
		fp:           fp,
		hasDerived:   derived,
		cut:          int64(cut),
		feasible:     feasible,
		blockWeights: bw,
	}
	return nil
}

// validEps reports whether a deserialized eps is a usable imbalance bound:
// finite, non-negative and within MaxEps (0 is the "unspecified/default"
// form legacy files produce). NaN in particular must be rejected here —
// it slides through ordinary < / > range checks downstream.
func validEps(eps float64) bool {
	return !math.IsNaN(eps) && eps >= 0 && eps <= MaxEps
}

func (p *Partition) decodeText(data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	out := Partition{}
	versioned := false
	line := 0
	var maxBlock int32 = -1
	for sc.Scan() {
		line++
		t := strings.TrimSpace(sc.Text())
		if t == "" {
			continue
		}
		if strings.HasPrefix(t, "%") {
			if t == textHeader {
				versioned = true
				continue
			}
			fields := strings.Fields(strings.TrimLeft(t, "% "))
			if len(fields) < 2 {
				continue // unknown comment
			}
			var err error
			switch fields[0] {
			case "k":
				var k int64
				k, err = strconv.ParseInt(fields[1], 10, 32)
				out.k = int32(k)
			case "eps":
				out.eps, err = strconv.ParseFloat(fields[1], 64)
			case "graph":
				out.fp = fields[1]
			case "cut":
				out.cut, err = strconv.ParseInt(fields[1], 10, 64)
				out.hasDerived = true
			case "feasible":
				out.feasible, err = strconv.ParseBool(fields[1])
				out.hasDerived = true
			case "blockweights":
				out.blockWeights = make([]int64, 0, len(fields)-1)
				for _, f := range fields[1:] {
					var w int64
					w, err = strconv.ParseInt(f, 10, 64)
					if err != nil {
						break
					}
					out.blockWeights = append(out.blockWeights, w)
				}
			}
			if err != nil {
				return fmt.Errorf("parhip: text partition line %d: %v", line, err)
			}
			continue
		}
		b, err := strconv.ParseInt(t, 10, 32)
		if err != nil {
			return fmt.Errorf("parhip: text partition line %d: %v", line, err)
		}
		if b < 0 {
			return fmt.Errorf("parhip: text partition line %d: negative block %d", line, b)
		}
		out.assign = append(out.assign, int32(b))
		if int32(b) > maxBlock {
			maxBlock = int32(b)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("parhip: read text partition: %w", err)
	}
	if len(out.assign) == 0 {
		return errors.New("parhip: text partition has no assignments")
	}
	if !validEps(out.eps) {
		return fmt.Errorf("parhip: text partition has eps = %g outside [0, %g]", out.eps, MaxEps)
	}
	if out.k == 0 {
		// Legacy headerless file: infer the block count.
		out.k = maxBlock + 1
	}
	if versioned && out.k < 1 {
		return fmt.Errorf("parhip: text partition has k = %d", out.k)
	}
	if maxBlock >= out.k {
		return fmt.Errorf("parhip: text partition has block %d outside [0,%d)", maxBlock, out.k)
	}
	if out.blockWeights != nil && int32(len(out.blockWeights)) != out.k {
		return fmt.Errorf("parhip: text partition has %d block weights for k=%d", len(out.blockWeights), out.k)
	}
	*p = out
	return nil
}
