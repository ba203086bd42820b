package exp

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/mpi"
)

// RepartPoint is one repartitioning measurement: a graph is partitioned
// cold, a churned copy is partitioned cold again and once more warm
// (seeded with the pre-churn partition through the migration-aware path),
// and the point records how the warm run's cut and migration compare.
type RepartPoint struct {
	Graph string
	N     int32
	M     int64
	K     int32
	PEs   int
	Churn float64
	// ColdCut is the cut of a from-scratch run on the churned graph;
	// WarmCut the cut of the repartition run on the same graph.
	ColdCut int64
	WarmCut int64
	// MigratedNodes/MigrationVolume are the warm run's moves relative to
	// the pre-churn partition.
	MigratedNodes   int64
	MigrationVolume int64
	ColdTime        time.Duration
	WarmTime        time.Duration
	Feasible        bool
}

// RepartOptions parameterizes RunRepartition.
type RepartOptions struct {
	K     int32   // blocks (default 16)
	PEs   int     // simulated ranks (default 8)
	Churn float64 // edge churn fraction between revisions (default 0.05)
	Scale int32   // instance size multiplier (default 1)
	Seed  uint64  // base seed (default 1)
}

// RunRepartition measures the dynamic-graph scenario on the benchmark
// set's social instances plus a mesh: cold vs warm cut and the migration
// volume. One point per instance.
func RunRepartition(opt RepartOptions) []RepartPoint {
	if opt.K <= 0 {
		opt.K = 16
	}
	if opt.PEs <= 0 {
		opt.PEs = 8
	}
	if opt.Churn <= 0 {
		opt.Churn = 0.05
	}
	if opt.Scale < 1 {
		opt.Scale = 1
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	var pts []RepartPoint
	for _, inst := range BenchmarkSet(opt.Scale) {
		g := inst.Gen(opt.Seed)
		g2 := gen.Perturb(g, opt.Churn, opt.Seed+41)

		cfg := core.FastConfig(opt.K, inst.Class)
		cfg.Seed = opt.Seed

		// A failed instance must be loud, not silently absent from the
		// bench trail: log and skip.
		skip := func(stage string, err error) {
			fmt.Fprintf(os.Stderr, "repartition: %s: %s run failed: %v (instance dropped)\n",
				inst.Name, stage, err)
		}
		prevRes, err := core.RunOn(context.Background(), mpi.NewWorld(opt.PEs), g, cfg)
		if err != nil {
			skip("previous", err)
			continue
		}

		tCold := time.Now()
		coldRes, err := core.RunOn(context.Background(), mpi.NewWorld(opt.PEs), g2, cfg)
		if err != nil {
			skip("cold", err)
			continue
		}
		coldTime := time.Since(tCold)

		warmCfg := cfg
		warmCfg.Prepartition = prevRes.Part
		warmCfg.PrevPartition = prevRes.Part
		tWarm := time.Now()
		warmRes, err := core.RunOn(context.Background(), mpi.NewWorld(opt.PEs), g2, warmCfg)
		if err != nil {
			skip("warm", err)
			continue
		}
		warmTime := time.Since(tWarm)

		pts = append(pts, RepartPoint{
			Graph:           inst.Name,
			N:               g2.NumNodes(),
			M:               g2.NumEdges(),
			K:               opt.K,
			PEs:             opt.PEs,
			Churn:           opt.Churn,
			ColdCut:         coldRes.Stats.Cut,
			WarmCut:         warmRes.Stats.Cut,
			MigratedNodes:   warmRes.Stats.MigratedNodes,
			MigrationVolume: warmRes.Stats.MigrationVolume,
			ColdTime:        coldTime,
			WarmTime:        warmTime,
			Feasible:        warmRes.Stats.Feasible,
		})
	}
	return pts
}

// WriteRepartition renders the repartitioning experiment as a text table.
func WriteRepartition(w io.Writer, pts []RepartPoint) {
	fmt.Fprintln(w, "Repartitioning under edge churn: cold vs warm cut and migration")
	fmt.Fprintf(w, "%-12s %9s %10s %5s %9s %9s %9s %8s %9s %9s\n",
		"graph", "n", "m", "k", "cold-cut", "warm-cut", "migrated", "mig%", "cold-s", "warm-s")
	for _, p := range pts {
		frac := 0.0
		if p.N > 0 {
			frac = 100 * float64(p.MigratedNodes) / float64(p.N)
		}
		fmt.Fprintf(w, "%-12s %9d %10d %5d %9d %9d %9d %7.1f%% %9.3f %9.3f\n",
			p.Graph, p.N, p.M, p.K, p.ColdCut, p.WarmCut,
			p.MigratedNodes, frac, p.ColdTime.Seconds(), p.WarmTime.Seconds())
	}
}

// RepartRecord is one RepartPoint in machine-readable form (snake_case,
// seconds-based, matching Record's conventions). migration_volume is the
// headline field: the node weight a serving system must reshuffle to adopt
// the warm partition.
type RepartRecord struct {
	Graph           string  `json:"graph"`
	N               int32   `json:"n"`
	M               int64   `json:"m"`
	K               int32   `json:"k"`
	PEs             int     `json:"pes"`
	Churn           float64 `json:"churn"`
	ColdCut         int64   `json:"cold_cut"`
	WarmCut         int64   `json:"warm_cut"`
	MigratedNodes   int64   `json:"migrated_nodes"`
	MigrationVolume int64   `json:"migration_volume"`
	MigratedFrac    float64 `json:"migrated_frac"`
	ColdSeconds     float64 `json:"cold_seconds"`
	WarmSeconds     float64 `json:"warm_seconds"`
	Feasible        bool    `json:"feasible"`
}

// RepartRecords converts repartitioning points to their wire form.
func RepartRecords(pts []RepartPoint) []RepartRecord {
	out := make([]RepartRecord, len(pts))
	for i, p := range pts {
		out[i] = RepartRecord{
			Graph:           p.Graph,
			N:               p.N,
			M:               p.M,
			K:               p.K,
			PEs:             p.PEs,
			Churn:           p.Churn,
			ColdCut:         p.ColdCut,
			WarmCut:         p.WarmCut,
			MigratedNodes:   p.MigratedNodes,
			MigrationVolume: p.MigrationVolume,
			ColdSeconds:     p.ColdTime.Seconds(),
			WarmSeconds:     p.WarmTime.Seconds(),
			Feasible:        p.Feasible,
		}
		if p.N > 0 {
			out[i].MigratedFrac = float64(p.MigratedNodes) / float64(p.N)
		}
	}
	return out
}
