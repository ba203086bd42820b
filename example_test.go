package parhip_test

import (
	"context"
	"fmt"

	"repro"
)

// ExampleNew partitions two joined cliques with a session: a
// cancellable Partitioner constructed with functional options and run
// under a context.
func ExampleNew() {
	b := parhip.NewBuilder(8)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+4, v+4)
		}
	}
	b.AddEdge(3, 4)
	g := b.Build()

	p, err := parhip.New(g, parhip.WithK(2), parhip.WithPEs(2), parhip.WithSeed(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := p.Run(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("cut:", res.Cut)
	fmt.Println("cliques separated:", res.Partition.Block(0) != res.Partition.Block(4))
	// Output:
	// cut: 1
	// cliques separated: true
}

// ExamplePartition partitions a small ring of cliques into two blocks.
func ExamplePartition() {
	// Two 4-cliques joined by a single edge: the optimal bipartition cuts
	// exactly that edge.
	b := parhip.NewBuilder(8)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+4, v+4)
		}
	}
	b.AddEdge(3, 4)
	g := b.Build()

	p, err := parhip.New(g, parhip.WithK(2), parhip.WithPEs(2), parhip.WithSeed(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := p.Run(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("cut:", res.Cut)
	fmt.Println("feasible:", res.Feasible)
	fmt.Println("same block within clique 1:", res.Partition.Block(0) == res.Partition.Block(3))
	fmt.Println("same block within clique 2:", res.Partition.Block(4) == res.Partition.Block(7))
	fmt.Println("cliques separated:", res.Partition.Block(0) != res.Partition.Block(4))
	// Output:
	// cut: 1
	// feasible: true
	// same block within clique 1: true
	// same block within clique 2: true
	// cliques separated: true
}
