package analysis

import "testing"

func TestCollectiveFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{CollectiveAnalyzer}, "collective/dirty", "collective/clean")
}

func TestMutexGuardFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{MutexGuardAnalyzer}, "mutexguard/dirty", "mutexguard/clean")
}

func TestDeterminismFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{DeterminismAnalyzer}, "det/core", "det/sclp", "det/other")
}

func TestHotpathFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{HotpathAnalyzer}, "hotpath/dirty", "hotpath/clean")
}

func TestAPIAuditFixtures(t *testing.T) {
	runFixture(t, []*Analyzer{APIAuditAnalyzer}, "apiaudit/dirty", "apiaudit/clean")
}

// TestModuleIsLintClean is the in-tree CI gate mirror: the whole module
// must produce zero findings from the full suite — every violation is
// either fixed or carries a reviewed escape annotation.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; covered by the CI lint step")
	}
	mod, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := RunAnalyzers(mod, All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
