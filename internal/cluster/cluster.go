// Package cluster joins one OS process to a multi-process ParHIP world
// over the TCP transport. It is the logic behind the
// `parhip -transport tcp -rank i -peers ...` launcher path: every process
// loads the same (replicated) input graph, joins the rendezvous mesh as
// one rank, runs the identical SPMD partition pipeline, and the process
// hosting rank 0 receives the assembled result. The partition is
// bit-identical to an in-process run with the same seed and configuration.
package cluster

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
)

// Config describes one process's share of a cluster run. Graph, Core and
// the peer table must be identical on every process (the graph is
// replicated, as in the paper's replicated-input experiments); Rank must
// be unique.
type Config struct {
	// Rank is the rank this process hosts, in [0, len(Peers)).
	Rank int
	// Peers is the rank-ordered table of listen addresses (host:port).
	// Its length is the world size.
	Peers []string
	// Graph is the replicated input graph.
	Graph *graph.Graph
	// Core is the partition configuration; identical on every process.
	Core core.Config

	// HeartbeatTimeout, when positive, overrides how long a silent peer
	// is tolerated before it is declared dead (default 5s).
	HeartbeatTimeout time.Duration
	// BootstrapTimeout bounds the rendezvous wait for slow-starting peers
	// (default 30s).
	BootstrapTimeout time.Duration
	// Logf, when non-nil, receives transport lifecycle debug lines.
	Logf func(format string, args ...any)
}

// Report is what one process's run produced.
type Report struct {
	// Result is the assembled partition and statistics, populated only in
	// the process hosting rank 0.
	Result core.Result
	// Transport is this process's transport counter snapshot.
	Transport transport.Stats
}

// ParsePeers splits a comma-separated rank-ordered address list
// ("host0:port0,host1:port1,...").
func ParsePeers(list string) ([]string, error) {
	parts := strings.Split(list, ",")
	peers := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.Contains(p, ":") {
			return nil, fmt.Errorf("cluster: peer %q has no port", p)
		}
		peers = append(peers, p)
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return peers, nil
}

// Run joins the mesh as cfg.Rank, partitions, and returns this process's
// report. It blocks in the rendezvous until every peer process is up
// (bounded by BootstrapTimeout), and returns an error if a peer dies
// mid-run — the whole world aborts rather than hanging. Cancelling ctx
// aborts the world cooperatively across all processes.
func Run(ctx context.Context, cfg Config) (Report, error) {
	var rep Report
	if cfg.Graph == nil {
		return rep, fmt.Errorf("cluster: nil graph")
	}
	tcp, err := transport.NewTCP(transport.TCPConfig{
		Self:             cfg.Rank,
		Addrs:            cfg.Peers,
		HeartbeatTimeout: cfg.HeartbeatTimeout,
		BootstrapTimeout: cfg.BootstrapTimeout,
		Logf:             cfg.Logf,
	})
	if err != nil {
		return rep, err
	}
	world, err := mpi.NewWorldOn(tcp)
	if err != nil {
		tcp.Close()
		return rep, fmt.Errorf("cluster: rendezvous failed: %w", err)
	}
	defer world.Close()
	res, err := core.RunOn(ctx, world, cfg.Graph, cfg.Core)
	rep.Transport = world.TransportStats()
	if err != nil {
		return rep, err
	}
	rep.Result = res
	return rep, nil
}
