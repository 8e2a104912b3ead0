package evogame

// The repository's own static-analysis gate: the full internal/lint suite
// (randsource, maporder, atomicmix, envelopelock, errstyle, deadapi, plus
// the folded-in godoc and markdown-link disciplines) must come back clean over
// the whole tree, so `go test ./...` enforces every determinism invariant
// the analyzers encode.  cmd/evolint is the same suite as a CLI; CI runs
// both.  See docs/STATIC_ANALYSIS.md for the catalogue.

import (
	"strings"
	"testing"

	"evogame/internal/lint"
)

// loadRepo loads and type-checks the whole module once per test run.
func loadRepo(t *testing.T) *lint.Context {
	t.Helper()
	ctx, err := lint.Load(".", "evogame")
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

// TestRepositoryLintClean runs every analyzer over the repository and
// fails on any finding or type error: analyzers run over a package that
// does not type-check see incomplete type information.  Violations are
// either real bugs (fix them) or justified exceptions (//lint:allow
// <analyzer> <reason> — the reason is mandatory and itself linted).
func TestRepositoryLintClean(t *testing.T) {
	ctx := loadRepo(t)
	for _, pkg := range ctx.Packages {
		for _, err := range pkg.TypeErrors {
			t.Errorf("type-checking %s: %v", pkg.ImportPath, err)
		}
	}
	for _, d := range lint.Run(ctx, lint.All()) {
		t.Errorf("%s", d)
	}
}

// TestRepositoryLintCoverage pins the suite to the tree it is supposed to
// guard: a loader regression that silently dropped packages or the
// markdown corpus would otherwise turn every analyzer into a vacuous pass
// (TestRepositoryLintClean fails on dropped type information).
func TestRepositoryLintCoverage(t *testing.T) {
	ctx := loadRepo(t)
	if n := len(ctx.Packages); n < 25 {
		t.Errorf("loader found only %d packages; the module has far more — loader regression?", n)
	}
	for _, want := range []string{".", "internal/checkpoint", "internal/fitness", "internal/parallel", "cmd/evolint"} {
		if ctx.PackageAt(want) == nil {
			t.Errorf("loader did not load %q", want)
		}
	}
	if mds := lint.MarkdownFiles("."); len(mds) < 5 {
		t.Errorf("markdown corpus has shrunk to %d files (%s); the mdlinks analyzer is miswired", len(mds), strings.Join(mds, ", "))
	}
}
