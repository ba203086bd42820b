package parhip

// This audit enforces the API contract mechanically: no exported
// declaration of this package may accept or return a bare []int32
// partition. Partitions cross the API boundary as *Partition values; the
// raw-slice form survives only in the explicitly allowlisted boundary
// functions (NewPartition, EdgeCut, IsFeasible).
//
// The rule itself lives in internal/analysis (the apiaudit analyzer, which
// generalizes the original AST walk from this file to every package and
// runs module-wide in CI via cmd/parhiplint); this test keeps the root
// package enforced by a plain `go test .` with no extra tooling.

import (
	"testing"

	"repro/internal/analysis"
)

func TestNoBareInt32PartitionsInExportedAPI(t *testing.T) {
	mod, err := analysis.LoadModule(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	// Only the root package is this test's contract; the module-wide sweep
	// is parhiplint's job (mirrored by analysis.TestModuleIsLintClean).
	for _, pkg := range mod.Packages {
		if pkg.Path == "repro" {
			mod.Packages = []*analysis.Package{pkg}
			break
		}
	}
	diags := analysis.RunAnalyzers(mod, []*analysis.Analyzer{analysis.APIAuditAnalyzer})
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
