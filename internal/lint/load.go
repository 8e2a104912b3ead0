package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load parses and type-checks every package under root, as built for the
// host platform, and returns a Context ready for Run.  module is the
// import-path prefix of the tree ("evogame" for the repository; fixtures
// use a bare name).  Test files (_test.go) are not loaded: the suite
// analyzes shipped code, and test packages would drag external test deps
// into the type-check.
//
// Standard-library imports are resolved by the stdlib source importer
// (parsed and type-checked from GOROOT, no compiled export data needed),
// module-internal imports from the packages loaded here, checked in
// dependency order.  Anything else — there is nothing else while go.mod
// stays dependency-free — is a load error.
func Load(root, module string) (*Context, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ctx := &Context{Root: root, Module: module, Fset: fset}

	dirs, err := goDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		pkg, err := parseDir(fset, root, module, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			ctx.Packages = append(ctx.Packages, pkg)
		}
	}
	sort.Slice(ctx.Packages, func(i, j int) bool { return ctx.Packages[i].Rel < ctx.Packages[j].Rel })
	if err := typecheck(ctx); err != nil {
		return nil, err
	}
	return ctx, nil
}

// goDirs returns every directory under root holding at least one non-test
// .go file, skipping hidden trees, testdata and the committed artifact
// store.
func goDirs(root string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "artifacts") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(path)
			// A directory's files and subdirectories interleave in walk
			// order, so the root can come round again after its subtrees.
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test .go files of one directory that the default
// build context selects (GOOS/GOARCH file suffixes and //go:build lines, as
// `go build` with no -tags) into a Package, without type information;
// typecheck fills that in.  Without the filter a file pair such as
// x_amd64.go and x_other.go would both load and break the type-check.
func parseDir(fset *token.FileSet, root, module, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, e.Name())
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	pkg := &Package{Rel: rel, Dir: dir, ImportPath: importPath(module, rel)}
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", filepath.Join(rel, name), err)
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		} else if pkg.Name != f.Name.Name {
			return nil, fmt.Errorf("lint: %s: conflicting package names %s and %s", rel, pkg.Name, f.Name.Name)
		}
		pkg.Files = append(pkg.Files, f)
	}
	return pkg, nil
}

// importPath joins the module path and a module-relative directory.
func importPath(module, rel string) string {
	if rel == "." {
		return module
	}
	if module == "" {
		return rel
	}
	return module + "/" + rel
}

// moduleImporter resolves module-internal imports from the packages the
// loader has already type-checked and everything else through the stdlib
// source importer, sharing one instance (and therefore one cache of
// type-checked std packages) across the whole load.
type moduleImporter struct {
	std types.ImporterFrom
	mod map[string]*types.Package
}

var _ types.Importer = (*moduleImporter)(nil)

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.mod[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, "", 0)
}

// typecheck runs go/types over every loaded package in dependency order.
func typecheck(ctx *Context) error {
	std, ok := importer.ForCompiler(ctx.Fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return fmt.Errorf("lint: source importer does not implement types.ImporterFrom")
	}
	imp := &moduleImporter{std: std, mod: map[string]*types.Package{}}

	order, err := dependencyOrder(ctx)
	if err != nil {
		return err
	}
	for _, pkg := range order {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		tpkg, _ := conf.Check(pkg.ImportPath, ctx.Fset, pkg.Files, info)
		if tpkg == nil {
			return fmt.Errorf("lint: type-checking %s produced no package", pkg.ImportPath)
		}
		pkg.Types = tpkg
		pkg.Info = info
		imp.mod[pkg.ImportPath] = tpkg
	}
	return nil
}

// dependencyOrder topologically sorts the loaded packages by their
// module-internal imports so each package type-checks after everything it
// imports.
func dependencyOrder(ctx *Context) ([]*Package, error) {
	byPath := map[string]*Package{}
	for _, p := range ctx.Packages {
		byPath[p.ImportPath] = p
	}
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p.ImportPath] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", p.ImportPath)
		}
		state[p.ImportPath] = visiting
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				if dep, ok := byPath[path]; ok && dep != p {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		state[p.ImportPath] = done
		order = append(order, p)
		return nil
	}
	for _, p := range ctx.Packages {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
