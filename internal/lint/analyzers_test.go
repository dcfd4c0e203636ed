package lint_test

import (
	"path/filepath"
	"testing"

	"ovhweather/internal/lint"
	"ovhweather/internal/lint/linttest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestPoolPair(t *testing.T) {
	linttest.Run(t, fixture("poolpair"), lint.PoolPair)
}

func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, fixture("hotpathalloc"), lint.HotPathAlloc)
}

func TestTypedErr(t *testing.T) {
	linttest.Run(t, fixture("typederr"), lint.TypedErr)
}

// TestTypedErrScopedToDeclaringPackage is the analyzer-level
// false-positive guard: packages that never declare CorruptError are
// outside the contract entirely.
func TestTypedErrScopedToDeclaringPackage(t *testing.T) {
	linttest.Run(t, fixture("typederr_nodecl"), lint.TypedErr)
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, fixture("ctxflow"), lint.CtxFlow)
}

func TestSharded(t *testing.T) {
	linttest.Run(t, fixture("sharded"), lint.Sharded)
}

func TestAllAnalyzersHaveDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.All() {
		if a.Name == "" || a.Doc == "" || (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 5 {
		t.Errorf("suite has %d analyzers, want at least 5", len(seen))
	}
}

func TestByName(t *testing.T) {
	if got := len(lint.ByName("")); got != len(lint.All()) {
		t.Errorf("ByName(\"\") = %d analyzers, want all %d", got, len(lint.All()))
	}
	sel := lint.ByName("poolpair,ctxflow")
	if len(sel) != 2 {
		t.Fatalf("ByName(poolpair,ctxflow) = %d analyzers, want 2", len(sel))
	}
	for _, a := range sel {
		if a.Name != "poolpair" && a.Name != "ctxflow" {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
	}
	if got := lint.ByName("nosuch"); len(got) != 0 {
		t.Errorf("ByName(nosuch) = %v, want empty", got)
	}
}

func TestDeadExport(t *testing.T) {
	linttest.RunModule(t, fixture("deadexport"), lint.DeadExport)
}
