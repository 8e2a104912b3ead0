package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
)

// DeadAPI keeps internal/ free of exported functions and methods that no
// shipped code calls.  A test-only export still has to be read, documented
// and kept compiling, and it invites a second caller onto a path the
// production code no longer exercises.  Uses are collected from the
// non-test files the loader parses (cmd/ and examples/ count).  A method
// also counts as used when its receiver type implements an interface that
// declares it and that the module declares or names, or that the standard
// library calls through (error, fmt.Stringer and the errors.Is/As hooks):
// calls through an interface never name the concrete method.  A helper that
// tests of other packages need to build inputs stays behind a
// //lint:allow deadapi naming that test.
var DeadAPI = &Analyzer{
	Name: "deadapi",
	Doc:  "exported internal/ funcs and methods need a non-test caller",
	Run:  runDeadAPI,
}

func runDeadAPI(ctx *Context) {
	used := map[types.Object]bool{}
	ifaces := conventionIfaces()
	addIface := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, pkg := range ctx.Packages {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
			addIface(obj) // an interface the module names, standard library included
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			addIface(scope.Lookup(name))
		}
	}

	for _, pkg := range ctx.Packages {
		if !strings.HasPrefix(pkg.Rel, "internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok || used[fn] || satisfiesInterface(fn, ifaces) {
					continue
				}
				ctx.Reportf(fd.Name.Pos(), "exported %s has no caller outside tests; delete it (or //lint:allow deadapi naming the test that needs it)", describeFunc(fd))
			}
		}
	}
}

// conventions declares the interfaces the standard library calls through
// without the module naming them: fmt.Stringer, and the optional methods
// errors.Is and errors.As look for on an error chain.
const conventions = `package conventions
type stringer interface{ String() string }
type unwrapper interface { error; Unwrap() error }
type iser interface { error; Is(error) bool }
type aser interface { error; As(any) bool }
`

// conventionIfaces type-checks the conventions source and returns its
// interfaces plus error.
func conventionIfaces() []*types.Interface {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "conventions.go", conventions, 0)
	if err != nil {
		panic(err) // conventions is a constant: only an edit to it can fail
	}
	pkg, err := new(types.Config).Check("conventions", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return out
}

// satisfiesInterface reports whether fn is a method whose receiver type
// (or its pointer) implements one of ifaces, and that interface declares
// a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		if !declares(it, fn.Name()) {
			continue
		}
		if types.Implements(recv, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// declares reports whether the interface's method set has a method name.
func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
