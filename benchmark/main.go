// Command benchmark is the repository's performance contract: six named
// workloads covering a request's whole life (library partition runs on
// in-process and TCP worlds, a warm repartition, and the HTTP service with
// live graphs), end-to-end metrics with regression bounds, and a per-layer
// walk. See README.md and ../BENCHMARK.json.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//	benchmark [-runs R]                                       every workload, writes out/results.json
//	benchmark -compare a.json b.json                          regression table between two result files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

const pinEnv = "PARHIP_BENCH_PINNED"

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as JSON on the last line")
		seed         = flag.Uint64("seed", 1, "derives every generator and partitioner seed")
		seconds      = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the layer walk and substrate passes")
		scale        = flag.String("scale", "full", "full, or tiny (n≈4K, one rep) for the smoke test")
		declPath     = flag.String("decl", "BENCHMARK.json", "the benchmark's declaration")
		outDir       = flag.String("out", "benchmark/out", "directory for results.json and traces")
		runs         = flag.Int("runs", 3, "without -workload: end-to-end runs per workload, each with another seed")
		compare      = flag.Bool("compare", false, "compare two results.json files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	decl, err := loadDeclaration(*declPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	if *scale != "full" && *scale != "tiny" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown scale %q\n", *scale)
		return 2
	}
	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, tiny: *scale == "tiny",
		outDir: *outDir, declPath: *declPath, l2Bytes: cacheBytes(2)}
	if runtime.NumCPU() < 2 && os.Getenv(pinEnv) == "" {
		fmt.Fprintln(os.Stderr, "warning: fewer than 2 CPUs: the two-rank workloads measure time-slicing, not parallel runs (env.undersized=true)")
	}
	if *workloadName == "" {
		return runAll(decl, o, *runs)
	}

	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
		return 2
	}
	pinned := os.Getenv(pinEnv) == "1"
	if w.oneCPU && os.Getenv(pinEnv) == "" {
		// Only returns if this process could not be confined and re-executed.
		err := reexecOnOneCPU(pinEnv)
		fmt.Fprintf(os.Stderr, "warning: %s: %v; falling back to GOMAXPROCS=1 (pinned=false)\n", w.name, err)
		runtime.GOMAXPROCS(1)
	}
	out, lines, err := runWorkload(context.Background(), decl, w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if w.oneCPU {
		lines = append(lines, fmt.Sprintf("%s env.pinned %t bool n=1", w.name, pinned))
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	last, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(last))
	if !out.Correct {
		return 1
	}
	return 0
}

// runOutput is the last line of a run's standard output.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs w once and reports every declared metric of the run's
// kind (end-to-end with tracing off, per-layer with it on), plus one
// `workload metric value unit n=<samples>` line per metric.
func runWorkload(ctx context.Context, decl *declaration, w workload, o runOpts) (runOutput, []string, error) {
	decls := decl.EndToEnd
	if o.trace {
		decls = decl.PerLayer
	}
	m, ck := newMetricSet(decls), &checks{}
	var err error
	if w.svc {
		err = runServiceWorkload(w, o, m, ck)
	} else {
		err = runPartitionWorkload(ctx, w, o, m, ck)
	}
	if err != nil {
		return runOutput{}, nil, err
	}
	if len(m.errs) > 0 {
		return runOutput{}, nil, m.errs[0]
	}
	out := runOutput{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: map[string]metricValue{}}
	var lines []string
	for _, d := range decls {
		s := m.values[d.Name]
		// End-to-end metrics are measured on every workload and never 0; a
		// per-layer metric is 0 where the workload does not exercise the layer.
		if !o.trace && s.value == 0 {
			return runOutput{}, nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{s.value, d.Unit}
		lines = append(lines, fmt.Sprintf("%s %s %v %s n=%d", w.name, d.Name, s.value, d.Unit, s.n))
	}
	return out, lines, nil
}
