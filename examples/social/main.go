// Social: partition a social network for distributed graph processing —
// the paper's motivating application (§I: PageRank on k PEs wants k blocks
// of about equal size with few edges between them).
//
// The example partitions a preferential-attachment network, then estimates
// the per-superstep communication of a Pregel-style PageRank under three
// placements: hash partitioning (what most toolkits default to, §II-B),
// the matching baseline, and ParHIP. Communication is measured as the
// number of (node, foreign block) pairs that must be sent each superstep —
// the communication volume metric.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/gen"
)

func main() {
	const (
		n = 30000
		k = 16
	)
	g := gen.BarabasiAlbert(n, 6, 21)
	fmt.Printf("social network: n=%d m=%d maxdeg=%d\n", g.NumNodes(), g.NumEdges(), g.MaxDegree())

	// Hash placement: node v on PE v mod k.
	hash := make([]int32, n)
	for v := int32(0); v < n; v++ {
		hash[v] = v % k
	}
	hp, err := parhip.NewPartition(g, hash, k, parhip.DefaultEps)
	if err != nil {
		log.Fatal(err)
	}
	report("hash", g, hp)

	ctx := context.Background()
	opts := []parhip.Option{parhip.WithK(k), parhip.WithPEs(8), parhip.WithSeed(5)}
	bres, err := parhip.RunBaseline(ctx, g, 0, opts...)
	if err != nil {
		log.Fatal(err)
	}
	report("matching-baseline", g, bres.Partition)

	for _, run := range []struct {
		name string
		mode parhip.Mode
	}{{"parhip-fast", parhip.Fast}, {"parhip-eco", parhip.Eco}} {
		p, err := parhip.New(g, append(opts, parhip.WithMode(run.mode))...)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.Run(ctx)
		if err != nil {
			log.Fatal(err)
		}
		report(run.name, g, res.Partition)
	}

	fmt.Println("\nLower cut and communication volume mean fewer messages per")
	fmt.Println("PageRank superstep; balance keeps all PEs equally loaded.")
}

func report(name string, g *parhip.Graph, p *parhip.Partition) {
	fmt.Printf("%-18s cut=%8d  commvol=%8d  imbalance=%.4f  feasible=%v\n",
		name, p.Cut(), p.CommunicationVolume(g), p.Imbalance(), p.Feasible())
}
