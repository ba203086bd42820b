package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges metric b against base a: "unresolved" when either side's
// run-to-run spread (interquartile distance over median) is wider than
// the bound, "worse" when b's median is worse than a's by more than the
// bound, else "ok".
func verdict(a, b e2eResult) string {
	worse := (b.Median - a.Median) / a.Median
	if a.Better == "higher" {
		worse = -worse
	}
	for _, side := range []e2eResult{a, b} {
		if s, ok := spread(side.Values); ok && s > a.Bound {
			return "unresolved"
		}
	}
	if worse > a.Bound {
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns 1 if any is worse.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	byName := map[string]e2eResult{}
	for _, wl := range b.Workloads {
		for _, m := range wl.EndToEnd {
			byName[wl.Name+" "+m.Name] = m
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta (base)\tb\tb/a\tspread a\tspread b\tbound\tverdict\n")
	code := 0
	for _, wl := range a.Workloads {
		for _, ma := range wl.EndToEnd {
			mb, ok := byName[wl.Name+" "+ma.Name]
			if !ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t-\t-\t-\t-\t%.2f\tmissing\n", wl.Name, ma.Name, ma.Unit, ma.Median, ma.Bound)
				code = 1
				continue
			}
			v := verdict(ma, mb)
			if v == "worse" {
				code = 1
			}
			sa, _ := spread(ma.Values)
			sb, _ := spread(mb.Values)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n",
				wl.Name, ma.Name, ma.Unit, ma.Median, mb.Median, mb.Median/ma.Median, sa, sb, ma.Bound, v)
		}
	}
	tw.Flush()
	return code
}
