package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload at -scale tiny, with tracing off and on,
// and holds the program to its declaration: every workload and metric of
// BENCHMARK.json is emitted exactly once per run, names are well formed,
// counts are inside the contract's limits, no check fails, and -compare of
// a results file with itself is all ok.
func TestSmoke(t *testing.T) {
	decl, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(decl.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, decl.EndToEnd...), decl.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}

	res := resultsFile{Schema: 1}
	for i, wd := range decl.Workloads {
		w := workloads[i]
		if wd.Name != w.name || !nameRE.MatchString(wd.Name) {
			t.Fatalf("workload %d: declared %q, program has %q", i, wd.Name, w.name)
		}
		wr := workloadResult{Name: w.name}
		for _, trace := range []bool{false, true} {
			decls := decl.EndToEnd
			if trace {
				decls = decl.PerLayer
			}
			o := runOpts{seed: 1, trace: trace, tiny: true, outDir: t.TempDir()}
			out, lines, err := runWorkload(context.Background(), decl, w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(decls) || len(lines) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics and %d lines for %d declared", w.name, trace, len(out.Metrics), len(lines), len(decls))
			}
			for _, d := range decls {
				v, ok := out.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.name, trace, d.Name, v.Unit, d.Unit)
				}
				if !trace {
					if v.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, d.Name)
					}
					wr.EndToEnd = append(wr.EndToEnd, summarise(d, []float64{v.Value}))
				}
			}
			if trace && !w.svc {
				if _, err := os.Stat(filepath.Join(o.outDir, w.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace written: %v", w.name, err)
				}
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}

	path := filepath.Join(t.TempDir(), "results.json")
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte(`"claim":null}`)) {
		t.Errorf("results do not end with \"claim\": null: ...%s", data[len(data)-40:])
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if code := compareFiles(path, path, &table); code != 0 {
		t.Errorf("-compare of a file with itself exited %d", code)
	}
	rows := strings.Split(strings.TrimSpace(table.String()), "\n")[1:]
	if want := len(decl.Workloads) * len(decl.EndToEnd); len(rows) != want {
		t.Errorf("-compare printed %d rows, want %d", len(rows), want)
	}
	for _, row := range rows {
		if !strings.HasSuffix(strings.TrimSpace(row), " ok") {
			t.Errorf("-compare of a file with itself: %s", row)
		}
	}
}
