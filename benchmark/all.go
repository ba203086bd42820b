package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// resultsFile is out/results.json: what one full set of runs measured, on
// which box. It claims nothing, so it ends with "claim": null.
type resultsFile struct {
	Schema    int                    `json:"schema"`
	Env       envBlock               `json:"env"`
	Seed      uint64                 `json:"seed"`
	Runs      int                    `json:"runs"`
	Seconds   float64                `json:"seconds"`
	Scale     string                 `json:"scale"`
	Workloads []workloadResult       `json:"workloads"`
	Derived   map[string]metricValue `json:"derived"`
	Claim     *string                `json:"claim"`
}

type workloadResult struct {
	Name      string        `json:"name"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	EndToEnd  []e2eResult   `json:"end_to_end"`
	PerLayer  []layerResult `json:"per_layer"`
}

// e2eResult summarises one end-to-end metric over the runs (one value per
// seed).
type e2eResult struct {
	metricDecl
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarise(d metricDecl, xs []float64) e2eResult {
	lo, hi := minMax(xs)
	return e2eResult{metricDecl: d, Median: median(xs), Min: lo, Max: hi, N: len(xs), Values: xs}
}

type layerResult struct {
	metricDecl
	Value float64 `json:"value"`
}

// runChild re-executes this binary for one run, so heap state does not
// leak between runs and VmHWM is per run. It returns the run's result and
// the metric lines it printed.
func runChild(exe, workload string, o runOpts, seed uint64, trace int) (runOutput, []string, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-scale", o.scale(), "-decl", o.declPath, "-out", o.outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return out, nil, fmt.Errorf("%s seed %d trace %d: no result (%v)", workload, seed, trace, runErr)
	}
	return out, lines[:len(lines)-1], nil
}

// runAll runs every declared workload: `runs` end-to-end runs with
// consecutive seeds, then one traced run, each in its own process.
func runAll(decl *declaration, o runOpts, runs int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res := resultsFile{Schema: 1, Env: readEnv(), Seed: o.seed, Runs: runs, Seconds: o.seconds, Scale: o.scale(),
		Derived: map[string]metricValue{}}
	failed := false
	partitionS := map[string]float64{} // workload -> median partition_s
	for _, wd := range decl.Workloads {
		if _, ok := findWorkload(wd.Name); !ok {
			fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json declares unknown workload %q\n", wd.Name)
			return 2
		}
		wr := workloadResult{Name: wd.Name}
		values := map[string][]float64{}
		for r := 0; r <= runs; r++ {
			// The last run is the traced one, on the first seed.
			seed, trace := o.seed+uint64(r), 0
			if r == runs {
				seed, trace = o.seed, 1
			}
			out, lines, err := runChild(exe, wd.Name, o, seed, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				failed = true
				continue
			}
			wr.Attempted, wr.Failed = wr.Attempted+out.Attempted, wr.Failed+out.Failed
			for _, l := range lines {
				if strings.HasSuffix(l, " env.pinned true bool n=1") {
					res.Env.Pinned = true
				}
			}
			if trace == 0 {
				for name, v := range out.Metrics {
					values[name] = append(values[name], v.Value)
				}
				continue
			}
			for _, d := range decl.PerLayer {
				wr.PerLayer = append(wr.PerLayer, layerResult{metricDecl: d, Value: out.Metrics[d.Name].Value})
			}
			fmt.Println(strings.Join(lines, "\n"))
		}
		for _, d := range decl.EndToEnd {
			r := summarise(d, values[d.Name])
			wr.EndToEnd = append(wr.EndToEnd, r)
			fmt.Printf("%s %s %v %s n=%d\n", wd.Name, d.Name, r.Median, d.Unit, r.N)
			if d.Name == "partition_s" {
				partitionS[wd.Name] = r.Median
			}
		}
		failed = failed || wr.Failed > 0
		res.Workloads = append(res.Workloads, wr)
	}
	// Informational only, never gated: a serial-only gain lowers it honestly.
	if c1, p2 := partitionS["web-c1"], partitionS["web-p2"]; c1 > 0 && p2 > 0 {
		res.Derived["core.speedup_p2"] = metricValue{c1 / p2, "ratio"}
		fmt.Printf("web-p2 core.speedup_p2 %v ratio n=1\n", c1/p2)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.outDir, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}
