// Command parhip partitions a graph from the command line.
//
// The input is either a METIS-format graph file (-graph) or a generated
// instance (-family with -n). Output is a quality report and, optionally,
// the partition written to -out: the versioned text partition format by
// default (a '%%' header plus one block per node per line, readable by
// legacy block-per-line parsers), or the binary format when the file name
// ends in .bpart. A partition saved this way can seed a later
// migration-aware repartitioning run of a drifted graph via -prev (any
// partition format, including legacy block-per-line files); the report
// then includes how many nodes migrated. A SIGINT (Ctrl-C) or SIGTERM
// cancels the run cooperatively: the simulated ranks unwind at the next
// superstep, partial progress statistics are printed, and the process
// exits with status 130. -progress streams per-level checkpoint events to
// stderr while the run is in flight.
//
// With -transport tcp the process instead hosts one rank of a
// multi-process world: launch one process per rank — on one machine or
// many — with identical graph, seed, mode and rank-ordered -peers
// arguments; they rendezvous, and the rank-0 process reports the result
// (bit-identical to the in-process run). A process that dies aborts the
// whole world within -hb-timeout instead of hanging it.
//
// Examples:
//
//	parhip -family web -n 20000 -k 8 -pes 8 -mode eco -progress
//	parhip -graph mygraph.metis -k 2 -out blocks.part
//	parhip -graph mygraph-v2.metis -prev blocks.part -out blocks-v2.part
//
//	peers=127.0.0.1:7701,127.0.0.1:7702,127.0.0.1:7703
//	parhip -transport tcp -rank 0 -peers $peers -family web -n 20000 -k 8 &
//	parhip -transport tcp -rank 1 -peers $peers -family web -n 20000 -k 8 &
//	parhip -transport tcp -rank 2 -peers $peers -family web -n 20000 -k 8
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
)

// settingsFlags are the flags that decide the partition; every other flag
// only decides what is reported or where it is written.
type settingsFlags struct {
	k     int
	pes   int      // -pes: world size of the inproc transport
	peers []string // -peers: the tcp world; its length replaces pes
	mode  string
	class string // social, mesh or auto
	eps   float64
	seed  uint64
}

var (
	modeNames = map[string]parhip.Mode{
		"fast": parhip.Fast, "eco": parhip.Eco, "minimal": parhip.Minimal}
	classNames = map[string]parhip.GraphClass{
		"social": parhip.Social, "mesh": parhip.Mesh}
)

// options is the one flag → library option mapping, shared by both
// transports. Values are passed through as given: a -seed 0 or -eps 0 is
// the library's range error, not a silent default. auto is the class
// "-class auto" resolves to.
func (f settingsFlags) options(auto parhip.GraphClass) ([]parhip.Option, error) {
	mode, ok := modeNames[f.mode]
	if !ok {
		return nil, fmt.Errorf("unknown mode %q (want fast, eco or minimal)", f.mode)
	}
	class, ok := classNames[f.class]
	if f.class == "auto" {
		class, ok = auto, true
	}
	if !ok {
		return nil, fmt.Errorf("unknown class %q (want social, mesh or auto)", f.class)
	}
	pes := f.pes
	if f.peers != nil {
		pes = len(f.peers)
	}
	opts := []parhip.Option{parhip.WithK(int32(f.k)), parhip.WithPEs(pes),
		parhip.WithMode(mode), parhip.WithClass(class),
		parhip.WithEps(f.eps), parhip.WithSeed(f.seed)}
	return opts, nil
}

func main() {
	var (
		graphFile = flag.String("graph", "", "METIS graph file to partition")
		family    = flag.String("family", "", "generated family: rgg, delaunay, rmat, ba, web, mesh3d, grid")
		n         = flag.Int("n", 10000, "node count for generated graphs")
		seed      = flag.Uint64("seed", parhip.DefaultSeed, "random seed")
		k         = flag.Int("k", 2, "number of blocks")
		pes       = flag.Int("pes", parhip.DefaultPEs, "simulated processing elements")
		mode      = flag.String("mode", "fast", "fast, eco or minimal")
		class     = flag.String("class", "auto", "graph class: social, mesh or auto")
		eps       = flag.Float64("eps", parhip.DefaultEps, "allowed imbalance")
		baseline  = flag.Bool("baseline", false, "run the matching-based baseline instead")
		progress  = flag.Bool("progress", false, "stream per-level progress events to stderr")
		timeout   = flag.Duration("timeout", 0, "abort the run after this duration (0 = none)")
		prevFile  = flag.String("prev", "", "previous partition file: run a migration-aware repartition seeded with it")
		out       = flag.String("out", "", "write the partition to this file (text format; binary when the name ends in .bpart)")
		traceFile = flag.String("trace", "", "record per-rank spans and write a Chrome trace-event JSON file (open in Perfetto or chrome://tracing)")
		backend   = flag.String("transport", "inproc", "rank communication: inproc (all ranks in this process) or tcp (this process hosts one rank of a multi-process world)")
		rank      = flag.Int("rank", 0, "tcp: rank this process hosts, in [0, world size)")
		peersList = flag.String("peers", "", "tcp: rank-ordered comma-separated host:port list; its length is the world size")
		hbTimeout = flag.Duration("hb-timeout", 0, "tcp: declare a silent peer dead after this long (default 5s)")
		bootWait  = flag.Duration("bootstrap-timeout", 0, "tcp: give up the rendezvous after this long (default 30s)")
		verbose   = flag.Bool("v", false, "tcp: log transport lifecycle events to stderr")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "parhip:", err)
		os.Exit(1)
	}

	g, cls, err := loadGraph(*graphFile, *family, int32(*n), *seed)
	if err != nil {
		fail(err)
	}
	sf := settingsFlags{k: *k, pes: *pes, mode: *mode, class: *class,
		eps: *eps, seed: *seed}
	switch *backend {
	case "inproc":
		if *peersList != "" {
			fail(errors.New("-peers requires -transport tcp"))
		}
	case "tcp":
		if *baseline || *prevFile != "" || *traceFile != "" || *progress {
			fail(errors.New("-baseline, -prev, -trace and -progress are not supported with -transport tcp (use the inproc transport, or -v for transport logs)"))
		}
		if sf.peers, err = parsePeers(*peersList); err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown transport %q (want inproc or tcp)", *backend))
	}

	// The baseline has no previous-partition input and emits no checkpoints.
	if *baseline && (*prevFile != "" || *progress) {
		fail(errors.New("-prev and -progress are not supported with -baseline"))
	}
	var prev *parhip.Partition
	if *prevFile != "" {
		f, err := os.Open(*prevFile)
		if err != nil {
			fail(err)
		}
		prev, err = parhip.ReadPartition(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		kSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "k" {
				kSet = true
			}
		})
		if kSet && int32(*k) != prev.K() {
			fail(fmt.Errorf("-k %d conflicts with -prev partition's k=%d", *k, prev.K()))
		}
		sf.k = int(prev.K())
	}
	opts, err := sf.options(cls)
	if err != nil {
		fail(err)
	}

	// Ctrl-C / SIGTERM cancels the run cooperatively; -timeout bounds it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	tcp := sf.peers != nil
	world := fmt.Sprintf("pes=%d", *pes)
	if tcp {
		world = fmt.Sprintf("rank=%d/%d  transport=tcp", *rank, len(sf.peers))
	}
	fmt.Printf("graph: n=%d m=%d   k=%d  %s  mode=%s\n", g.NumNodes(), g.NumEdges(), sf.k, world, *mode)

	var tracer *parhip.Tracer
	if *traceFile != "" {
		tracer = parhip.NewTracer(*pes)
		opts = append(opts, parhip.WithTracer(tracer))
	}

	// Track the latest checkpoint so an interrupted run can report how far
	// it got; -progress additionally streams every event.
	var mu sync.Mutex
	var last *parhip.ProgressEvent
	onEvent := func(ev parhip.ProgressEvent) {
		mu.Lock()
		last = &ev
		mu.Unlock()
		if *progress {
			if ev.Cut >= 0 {
				fmt.Fprintf(os.Stderr, "  [%6.2fs] cycle %d/%d %-9s level %-2d n=%-8d cut=%d imb=%.4f\n",
					ev.Elapsed.Seconds(), ev.Cycle+1, ev.Cycles, ev.Phase, ev.Level, ev.N, ev.Cut, ev.Imbalance)
			} else {
				fmt.Fprintf(os.Stderr, "  [%6.2fs] cycle %d/%d %-9s level %-2d n=%-8d m=%d\n",
					ev.Elapsed.Seconds(), ev.Cycle+1, ev.Cycles, ev.Phase, ev.Level, ev.N, ev.M)
			}
		}
	}

	start := time.Now()
	var res parhip.Result
	var ts transport.Stats // tcp only
	switch {
	case tcp:
		tcfg := transport.TCPConfig{Self: *rank, Addrs: sf.peers,
			HeartbeatTimeout: *hbTimeout, BootstrapTimeout: *bootWait}
		if *verbose {
			tcfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		res, ts, err = runTCP(ctx, g, tcfg, opts)
	case *baseline:
		res, err = parhip.RunBaseline(ctx, g, 0, opts...)
	default:
		opts = append(opts, parhip.WithProgressFunc(onEvent))
		if prev != nil {
			opts = append(opts, parhip.WithPrevious(prev))
		}
		var p *parhip.Partitioner
		p, err = parhip.New(g, opts...)
		if err == nil {
			res, err = p.Run(ctx)
		}
	}
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "parhip: run cancelled after %.3fs (%v)\n", elapsed.Seconds(), err)
			mu.Lock()
			if last != nil {
				fmt.Fprintf(os.Stderr, "parhip: partial progress: cycle %d/%d, phase %s, level %d (n=%d)",
					last.Cycle+1, last.Cycles, last.Phase, last.Level, last.N)
				if last.Cut >= 0 {
					fmt.Fprintf(os.Stderr, ", cut=%d imbalance=%.4f", last.Cut, last.Imbalance)
				}
				fmt.Fprintln(os.Stderr)
			} else if !tcp && !*baseline {
				fmt.Fprintln(os.Stderr, "parhip: cancelled before the first checkpoint")
			}
			mu.Unlock()
			writeTrace(*traceFile, tracer) // partial trace: spans completed before the abort
			os.Exit(130)
		}
		fail(err)
	}
	if res.Partition == nil { // tcp, and rank 0 lives in another process
		fmt.Printf("rank %d done in %.3fs (%d frames / %d bytes sent; result reported by rank 0)\n",
			*rank, elapsed.Seconds(), ts.FramesSent, ts.BytesSent)
		return
	}
	fmt.Printf("cut=%d  imbalance=%.4f  feasible=%v  commvol=%d  time=%.3fs\n",
		res.Cut, res.Imbalance, res.Feasible,
		res.Partition.CommunicationVolume(g), elapsed.Seconds())
	if prev != nil {
		plan, perr := res.Partition.MigrationPlan(prev)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "parhip: migration plan:", perr)
		} else {
			fmt.Printf("migration: %d/%d nodes moved (%.1f%%), volume %d\n",
				plan.MigratedNodes, plan.TotalNodes, 100*plan.MigratedFraction(), plan.MigrationVolume)
		}
	}
	if c := res.Stats.Comm; c.MessagesSent > 0 {
		fmt.Printf("comm: %d msgs, %d bytes (%d neighbor msgs over %d sparse exchanges)\n",
			c.MessagesSent, c.BytesSent(), c.NeighborMessages, c.NeighborExchanges)
	}
	if p := res.Stats.Par; p.Evaluated > 0 {
		fmt.Printf("sclp: %d supersteps, %d node evaluations, %d interior (%.1f%%)\n",
			p.Supersteps, p.Evaluated, p.Interior, 100*float64(p.Interior)/float64(p.Evaluated))
	}
	if tcp {
		fmt.Printf("transport: %d frames / %d bytes sent, %d heartbeat misses\n",
			ts.FramesSent, ts.BytesSent, ts.HeartbeatMisses)
	}
	if len(res.Stats.Levels) > 0 {
		fmt.Print("hierarchy:")
		for _, lv := range res.Stats.Levels {
			fmt.Printf(" %d", lv.N)
		}
		fmt.Println(" nodes")
	}
	if *out != "" {
		if err := writePartition(*out, res.Partition); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	writeTrace(*traceFile, tracer)
}

// runTCP is the multi-process launcher path: this process hosts exactly
// one rank, tcfg.Self, of a real networked world instead of simulating
// every PE in-process. It blocks in the rendezvous until every peer process
// is up; a peer that dies mid-run aborts the whole world, and cancelling
// ctx aborts it cooperatively across all processes. Every process of the
// run must be started with identical graph, seed, k, mode and peer-table
// arguments; the result — returned only in the rank-0 process, the others
// get a zero Result — is bit-identical to the in-process run with the same
// seed and configuration, because both run the configuration a session
// resolves from opts.
func runTCP(ctx context.Context, g *parhip.Graph, tcfg transport.TCPConfig, opts []parhip.Option) (parhip.Result, transport.Stats, error) {
	p, err := parhip.New(g, opts...)
	if err != nil {
		return parhip.Result{}, transport.Stats{}, err
	}
	tcp, err := transport.NewTCP(tcfg)
	if err != nil {
		return parhip.Result{}, transport.Stats{}, err
	}
	world, err := mpi.NewWorldOn(tcp)
	if err != nil {
		tcp.Close()
		return parhip.Result{}, transport.Stats{}, fmt.Errorf("rendezvous failed: %w", err)
	}
	defer world.Close()
	cfg := p.CoreConfig()
	res, err := core.RunOn(ctx, world, g, cfg)
	ts := world.TransportStats()
	if err != nil || tcfg.Self != 0 {
		return parhip.Result{}, ts, err
	}
	// Rebuild the first-class Partition value so the report carries the
	// same fields (including commvol) as the in-process path.
	st := res.Stats
	part, err := parhip.NewPartition(g, res.Part, cfg.K, cfg.Eps)
	return parhip.Result{Partition: part, Cut: st.Cut, Imbalance: st.Imbalance,
		Feasible: st.Feasible, Stats: st}, ts, err
}

// parsePeers splits -peers, a comma-separated rank-ordered address list
// ("host0:port0,host1:port1,...").
func parsePeers(list string) ([]string, error) {
	parts := strings.Split(list, ",")
	peers := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.Contains(p, ":") {
			return nil, fmt.Errorf("peer %q has no port", p)
		}
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return nil, errors.New("empty peer list")
	}
	return peers, nil
}

// writeTrace serializes the recorded spans as Chrome trace-event JSON.
// No-op when tracing was not requested.
func writeTrace(path string, tracer *parhip.Tracer) {
	if path == "" || tracer == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parhip: trace:", err)
		return
	}
	w := bufio.NewWriter(f)
	err = tracer.WriteJSON(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "parhip: trace:", err)
		return
	}
	fmt.Printf("wrote %s (%d spans; open in https://ui.perfetto.dev)\n", path, tracer.SpanCount())
	if sp, ok := tracer.MaxArg("heap_mb"); ok {
		args := make([]string, len(sp.Args))
		for i, a := range sp.Args {
			args[i] = fmt.Sprintf("%s=%d", a.Key, a.Val)
		}
		fmt.Printf("heap peak: %s on rank %d, ending %.3fs into the run (%s; the process's heap, shared by its ranks)\n",
			sp.Name, sp.Rank, sp.End.Seconds(), strings.Join(args, " "))
	}
}

func loadGraph(file, family string, n int32, seed uint64) (*parhip.Graph, parhip.GraphClass, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		var g *parhip.Graph
		if strings.HasSuffix(file, ".bgf") || strings.HasSuffix(file, ".bin") {
			g, err = graph.ReadBinary(f)
		} else {
			g, err = parhip.ReadMetis(f)
		}
		return g, parhip.Social, err
	}
	if family == "" {
		return nil, 0, fmt.Errorf("need -graph or -family")
	}
	g, err := gen.ByFamily(gen.Family(family), n, seed)
	if err != nil {
		return nil, 0, err
	}
	cls := parhip.Social
	switch gen.Family(family) {
	case gen.FamilyRGG, gen.FamilyDelaunay, gen.FamilyMesh3D, gen.FamilyGrid:
		cls = parhip.Mesh
	}
	return g, cls, nil
}

// writePartition saves the partition in the versioned text format, or the
// binary format for .bpart files.
func writePartition(path string, p *parhip.Partition) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if strings.HasSuffix(path, ".bpart") {
		_, err = p.WriteTo(w)
	} else {
		_, err = p.WriteTextTo(w)
	}
	if err != nil {
		return err
	}
	return w.Flush()
}
