// Package lint is a zero-dependency static-analysis framework guarding the
// repository's determinism and concurrency invariants.  It is built entirely
// on the standard library's go/ast, go/parser and go/types (go.mod stays
// empty) in the same no-external-tooling style the godoc and markdown-link
// lints pioneered — and it now hosts those two checks as analyzers alongside
// the determinism suite.
//
// The framework loads every package of the module (Loader), runs a set of
// Analyzers over the type-checked ASTs, and filters the resulting
// Diagnostics through //lint:allow suppression directives.  A directive
// must name the analyzer it silences and carry a human-readable reason:
//
//	//lint:allow randsource wall-clock timing for the progress line; never feeds simulation state
//
// A directive without a reason (or naming an unknown analyzer) is itself a
// diagnostic, so suppressions stay auditable.  See docs/STATIC_ANALYSIS.md
// for the catalogue of analyzers and the invariant each one guards.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: an analyzer name, a file position and a
// message.  File paths are relative to the analyzed root so output is
// stable across machines and usable in CI logs.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check.  Run receives the fully loaded Context and
// reports findings through it; the runner applies suppression directives
// afterwards, so analyzers never need to know about //lint:allow.
type Analyzer struct {
	// Name is the identifier used in output and in //lint:allow directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// Run inspects the context and reports findings via ctx.Report*.
	Run func(ctx *Context)
}

// Package is one loaded, type-checked package of the analyzed tree.
type Package struct {
	// Name is the package name from the package clause.
	Name string
	// Rel is the module-relative directory ("." for the module root,
	// "internal/game", "cmd/evolint", ...).  Analyzers scope themselves
	// by Rel so fixtures under testdata can mimic real package paths.
	Rel string
	// ImportPath is the full import path (module prefix + Rel).
	ImportPath string
	// Dir is the absolute filesystem directory.
	Dir string
	// Files holds the parsed non-test sources, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package object (never nil; possibly
	// incomplete if TypeErrors is non-empty).
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
	// TypeErrors collects type-checking problems.  The loader tolerates
	// them (analyzers degrade gracefully) but the self-run test pins the
	// repository to zero so loader regressions cannot silently weaken
	// the type-dependent analyzers.
	TypeErrors []error
}

// Context is the shared state of one lint run: the loaded packages, the
// filesystem root (for repo-level analyzers such as mdlinks), and the
// accumulating diagnostics.
type Context struct {
	// Root is the absolute path of the analyzed tree.
	Root string
	// Module is the module path ("evogame" for the repository).
	Module string
	// Fset is the shared FileSet every package was parsed into.
	Fset *token.FileSet
	// Packages holds the loaded packages sorted by Rel.
	Packages []*Package

	diags []Diagnostic
	cur   string // name of the analyzer currently running
}

// PackageAt returns the package with the given module-relative directory,
// or nil if the tree does not contain it.
func (c *Context) PackageAt(rel string) *Package {
	for _, p := range c.Packages {
		if p.Rel == rel {
			return p
		}
	}
	return nil
}

// relFile converts an absolute filename from the FileSet into a root-
// relative path with forward slashes.
func (c *Context) relFile(name string) string {
	rel := strings.TrimPrefix(name, c.Root)
	rel = strings.TrimPrefix(rel, "/")
	if rel == "" {
		rel = name
	}
	return rel
}

// Reportf records a finding for the currently running analyzer at pos.
func (c *Context) Reportf(pos token.Pos, format string, args ...interface{}) {
	p := c.Fset.Position(pos)
	c.diags = append(c.diags, Diagnostic{
		Analyzer: c.cur,
		File:     c.relFile(p.Filename),
		Line:     p.Line,
		Col:      p.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFile records a finding for the currently running analyzer in a
// non-Go file (markdown, for the mdlinks analyzer) at the given line.
func (c *Context) ReportFile(file string, line int, format string, args ...interface{}) {
	c.diags = append(c.diags, Diagnostic{
		Analyzer: c.cur,
		File:     c.relFile(file),
		Line:     line,
		Col:      1,
		Message:  fmt.Sprintf(format, args...),
	})
}

// DirectiveAnalyzer is the pseudo-analyzer name under which malformed
// //lint:allow directives are reported.  It cannot itself be suppressed.
const DirectiveAnalyzer = "lintdirective"

// directivePrefix introduces a suppression comment.
const directivePrefix = "lint:allow"

// directive is one parsed //lint:allow comment.
type directive struct {
	file     string // root-relative
	line     int
	analyzer string
	reason   string
}

// collectDirectives parses every //lint:allow comment in the loaded
// packages.  Malformed directives (no analyzer, unknown analyzer, missing
// reason) are reported as diagnostics under DirectiveAnalyzer.
func collectDirectives(ctx *Context, known map[string]bool) []directive {
	var dirs []directive
	for _, pkg := range ctx.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					text := strings.TrimPrefix(cm.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, directivePrefix) {
						continue
					}
					p := ctx.Fset.Position(cm.Pos())
					file := ctx.relFile(p.Filename)
					rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
					name, reason, _ := strings.Cut(rest, " ")
					reason = strings.TrimSpace(reason)
					bad := func(format string, args ...interface{}) {
						ctx.diags = append(ctx.diags, Diagnostic{
							Analyzer: DirectiveAnalyzer,
							File:     file,
							Line:     p.Line,
							Col:      p.Column,
							Message:  fmt.Sprintf(format, args...),
						})
					}
					switch {
					case name == "":
						bad("//lint:allow needs an analyzer name and a reason")
					case !known[name]:
						bad("//lint:allow names unknown analyzer %q", name)
					case reason == "":
						bad("//lint:allow %s needs a reason string explaining the suppression", name)
					default:
						dirs = append(dirs, directive{file: file, line: p.Line, analyzer: name, reason: reason})
					}
				}
			}
		}
	}
	return dirs
}

// suppressed reports whether d is covered by a directive: same file, same
// analyzer, and the directive sits on the finding's own line (trailing
// comment) or the line directly above it.
func suppressed(d Diagnostic, dirs []directive) bool {
	for _, dir := range dirs {
		if dir.analyzer != d.Analyzer || dir.file != d.File {
			continue
		}
		if dir.line == d.Line || dir.line == d.Line-1 {
			return true
		}
	}
	return false
}

// Run executes the analyzers over the context and returns the surviving
// diagnostics sorted by file, line, column and analyzer.
func Run(ctx *Context, analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	// Directives may name any registered analyzer, including ones not
	// selected for this run (a partial run must not flag the others'
	// suppressions as unknown).
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		ctx.cur = a.Name
		a.Run(ctx)
	}
	ctx.cur = ""
	dirs := collectDirectives(ctx, known)
	kept := ctx.diags[:0]
	for _, d := range ctx.diags {
		if d.Analyzer != DirectiveAnalyzer && suppressed(d, dirs) {
			continue
		}
		kept = append(kept, d)
	}
	ctx.diags = kept
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		RandSource,
		MapOrder,
		AtomicMix,
		EnvelopeLock,
		ErrStyle,
		PkgDoc,
		MDLinks,
		DeadAPI,
	}
}

// ByName resolves a comma-separated analyzer list ("maporder,errstyle")
// against the registry, preserving registry order.
func ByName(names string) ([]*Analyzer, error) {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("lint: unknown analyzer(s) %s", strings.Join(unknown, ", "))
	}
	return out, nil
}
