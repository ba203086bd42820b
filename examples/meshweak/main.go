// Meshweak: scaling behaviour on mesh-type graphs (the paper's Figure 5/6
// territory). Although ParHIP targets complex networks, the paper shows it
// also partitions larger meshes than ParMETIS can and with better cuts.
// This example runs a small weak-scaling sweep on random geometric graphs
// and a Delaunay-like mesh and prints the time per edge as the per-PE work
// is held constant.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"repro"
	"repro/internal/gen"
)

func main() {
	const perPE = 8192
	const k = 16
	maxP := runtime.NumCPU()
	if maxP > 8 {
		maxP = 8
	}
	fmt.Printf("weak scaling: %d nodes per PE, k=%d, up to %d PEs\n\n", perPE, k, maxP)
	fmt.Printf("%-10s %4s %9s %10s %14s %10s\n", "family", "p", "n", "m", "time/edge[s]", "cut")
	for _, fam := range []string{"rgg", "delaunay"} {
		for p := 1; p <= maxP; p *= 2 {
			n := int32(perPE * p)
			var g *parhip.Graph
			if fam == "rgg" {
				g = gen.RGG(n, 3)
			} else {
				g = gen.DelaunayLike(n, 3)
			}
			s, err := parhip.New(g, parhip.WithK(k), parhip.WithPEs(p),
				parhip.WithClass(parhip.Mesh), parhip.WithSeed(3))
			if err != nil {
				log.Fatal(err)
			}
			res, err := s.Run(context.Background())
			if err != nil {
				log.Fatal(err)
			}
			perEdge := res.Stats.TotalTime.Seconds() / float64(g.NumEdges())
			fmt.Printf("%-10s %4d %9d %10d %14.3e %10d\n",
				fam, p, g.NumNodes(), g.NumEdges(), perEdge, res.Cut)
		}
		fmt.Println()
	}
	fmt.Println("Flat or falling time/edge as p grows indicates weak scalability")
	fmt.Println("(compare Figure 5 of the paper).")
}
