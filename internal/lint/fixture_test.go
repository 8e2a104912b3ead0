package lint

// Fixture-driven tests: each directory under testdata/src is an
// independent mini-module loaded with an empty module prefix, so a fixture
// directory named internal/trace mimics the real package's
// module-relative path.  Expectations ride in the fixtures themselves:
//
//	//lint:allow maporder reason   — suppression under test
//	// want "regex"                — a diagnostic on this line
//	// want-next "regex"           — a diagnostic on the next line (used
//	//                               where the flagged line is itself a
//	//                               comment, e.g. a malformed directive)
//
// Every want must be matched by exactly one diagnostic and every
// diagnostic by exactly one want, so fixtures prove both that analyzers
// fire on violations and that they stay quiet on the negative cases.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// fixtureTrees lists the Go fixture trees and the analyzers the wants in
// each tree belong to (the full suite runs everywhere; scoping the
// comparison keeps unrelated analyzers from needing wants in every tree).
var fixtureTrees = []struct {
	name      string
	analyzers string
}{
	{"randsource", "randsource," + DirectiveAnalyzer},
	{"maporder", "maporder," + DirectiveAnalyzer},
	{"atomicmix", "atomicmix," + DirectiveAnalyzer},
	{"envelopelock", "envelopelock"},
	{"envelopelock_changed", "envelopelock"},
	{"envelopelock_version", "envelopelock"},
	{"errstyle", "errstyle," + DirectiveAnalyzer},
	{"pkgdoc", "pkgdoc"},
	{"deadapi", "deadapi," + DirectiveAnalyzer},
}

func TestFixtures(t *testing.T) {
	for _, tree := range fixtureTrees {
		tree := tree
		t.Run(tree.name, func(t *testing.T) {
			root := filepath.Join("testdata", "src", tree.name)
			ctx, err := Load(root, "")
			if err != nil {
				t.Fatal(err)
			}
			scope := map[string]bool{}
			for _, name := range strings.Split(tree.analyzers, ",") {
				scope[name] = true
			}
			var diags []Diagnostic
			for _, d := range Run(ctx, All()) {
				if scope[d.Analyzer] {
					diags = append(diags, d)
				} else {
					t.Errorf("out-of-scope diagnostic (add the analyzer to the tree's scope or fix the fixture): %s", d)
				}
			}
			matchWants(t, root, diags)
		})
	}
}

// TestLoadHonoursBuildConstraints: of a platform file pair (pick_amd64.go,
// and pick_other.go behind //go:build !amd64) the loader keeps only the
// file the host build selects, so the package type-checks cleanly.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	ctx, err := Load(filepath.Join("testdata", "src", "buildtags"), "")
	if err != nil {
		t.Fatal(err)
	}
	pkg := ctx.PackageAt("internal/pick")
	if pkg == nil {
		t.Fatal("loader did not load internal/pick")
	}
	for _, err := range pkg.TypeErrors {
		t.Errorf("type-checking %s: %v", pkg.ImportPath, err)
	}
	want := "pick_other.go"
	if runtime.GOARCH == "amd64" {
		want = "pick_amd64.go"
	}
	var got []string
	for _, f := range pkg.Files {
		got = append(got, filepath.Base(ctx.Fset.File(f.Pos()).Name()))
	}
	if len(got) != 2 || got[0] != "pick.go" || got[1] != want {
		t.Errorf("loaded %v, want [pick.go %s]", got, want)
	}
}

// wantMarker matches a // want, // want-next or // want+N comment and
// captures the offset and the quoted regex.  want+N markers expect the
// diagnostic N lines below — needed where a marker directly above the
// flagged line would itself become a doc comment and change the verdict.
var wantMarker = regexp.MustCompile(`// want(-next|\+\d+)? "([^"]*)"`)

// matchWants reads every fixture file under root, collects the want
// markers, and verifies a one-to-one match with the diagnostics.
func matchWants(t *testing.T, root string, diags []Diagnostic) {
	t.Helper()
	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, readErr := os.ReadFile(path)
		if readErr != nil {
			return readErr
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			return relErr
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantMarker.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			w := &want{file: filepath.ToSlash(rel), line: i + 1, re: regexp.MustCompile(m[2])}
			switch {
			case m[1] == "-next":
				w.line++
			case strings.HasPrefix(m[1], "+"):
				n, convErr := strconv.Atoi(m[1][1:])
				if convErr != nil {
					return convErr
				}
				w.line += n
			}
			wants = append(wants, w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.re)
		}
	}
}

// TestMDLinksFixture exercises the markdown analyzer over its own fixture
// tree (markdown files cannot carry Go want markers).
func TestMDLinksFixture(t *testing.T) {
	ctx, err := Load(filepath.Join("testdata", "src", "mdlinks"), "")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(ctx, []*Analyzer{MDLinks})
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s:%d", d.File, d.Line))
		if !strings.Contains(d.Message, "broken relative link") {
			t.Errorf("unexpected message: %s", d)
		}
	}
	want := []string{"docs/GUIDE.md:5", "docs/GUIDE.md:9"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("mdlinks diagnostics = %v, want %v", got, want)
	}
}

// TestByName pins the analyzer registry lookup used by cmd/evolint -run.
func TestByName(t *testing.T) {
	got, err := ByName("errstyle, maporder")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "maporder" || got[1].Name != "errstyle" {
		t.Errorf("ByName returned %v in the wrong shape", got)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName accepted an unknown analyzer")
	}
}
