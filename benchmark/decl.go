package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json is the one declaration of workloads and metrics; the
// program emits exactly what it declares.

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// sample is one reported metric: its value and how many measurements it
// summarises.
type sample struct {
	value float64
	n     int
}

// metricSet collects one run's metrics against the declared names, so a
// misspelt or undeclared metric is an error, not a silent zero.
type metricSet struct {
	values map[string]sample
	errs   []error
}

func newMetricSet(decls []metricDecl) *metricSet {
	m := &metricSet{values: map[string]sample{}}
	for _, d := range decls {
		m.values[d.Name] = sample{}
	}
	return m
}

func (m *metricSet) set(name string, value float64, n int) {
	if _, ok := m.values[name]; !ok {
		m.errs = append(m.errs, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name))
		return
	}
	m.values[name] = sample{value, n}
}

// setMedian reports the median of xs.
func (m *metricSet) setMedian(name string, xs []float64) { m.set(name, median(xs), len(xs)) }
