// Webgraph: the paper's headline scenario. Partition a web-like graph
// (community structure plus high-degree hubs) with ParHIP and with the
// matching-based baseline, under a memory budget that the baseline's
// ineffective coarsening cannot meet — reproducing the "*" entries of
// Tables II/III where ParMETIS runs out of memory.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/gen"
)

func main() {
	// Web-crawl analogue: community core plus a degree-one page fringe on
	// hub pages. ~20k nodes at this scale (the paper's uk-2007 has 105.8M).
	web := gen.WebCrawlLike(20000, 100, 10, 0.4, 180, 7)
	fmt.Printf("web graph: n=%d m=%d maxdeg=%d\n", web.NumNodes(), web.NumEdges(), web.MaxDegree())

	const k = 8
	opts := []parhip.Option{parhip.WithK(k), parhip.WithPEs(8)}

	// A session streams per-level progress while the run is in flight — on
	// a real web crawl this is minutes of otherwise-silent work.
	p, err := parhip.New(web, append(opts,
		parhip.WithProgressFunc(func(ev parhip.ProgressEvent) {
			if ev.Phase == "refine" {
				fmt.Printf("  refine level %d (n=%d): cut=%d\n", ev.Level, ev.N, ev.Cut)
			}
		}))...)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	res, err := p.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ParHIP fast: cut=%d imbalance=%.4f feasible=%v time=%.2fs\n",
		res.Cut, res.Imbalance, res.Feasible, res.Stats.TotalTime.Seconds())
	fmt.Print("  hierarchy:")
	for _, lv := range res.Stats.Levels {
		fmt.Printf(" %d", lv.N)
	}
	fmt.Println(" nodes — note the aggressive first contraction")

	// The baseline under a memory budget of n/6 nodes: its matching-based
	// coarsening cannot shrink the leaf fringe fast enough.
	budget := int64(web.NumNodes()) / 6
	bres, err := parhip.RunBaseline(ctx, web, budget, opts...)
	if err != nil {
		fmt.Printf("baseline: FAILED as in the paper's tables: %v\n", err)
	} else {
		fmt.Printf("baseline: cut=%d imbalance=%.4f (budget generous enough at this scale)\n",
			bres.Cut, bres.Imbalance)
	}

	// Without the budget the baseline finishes; compare quality.
	bres, err = parhip.RunBaseline(ctx, web, 0, opts...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline (unlimited memory): cut=%d — ParHIP cuts %.1f%% fewer edges\n",
		bres.Cut, 100*(1-float64(res.Cut)/float64(bres.Cut)))
}
