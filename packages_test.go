package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// goFiles calls fn for every non-test .go file under root, skipping
// testdata and hidden or underscore-prefixed directories as the go tool does,
// and nested modules (a directory below root with its own go.mod).
func goFiles(t *testing.T, root string, fn func(path string)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			fn(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEveryInternalPackageHasACaller guards against code that nothing runs:
// every non-test package under internal/ must be imported by a non-test file
// of cmd/, examples/, bench/ or another internal/ package. A package only
// its own tests exercise is dead weight to delete, not to maintain.
func TestEveryInternalPackageHasACaller(t *testing.T) {
	pkgs := map[string]bool{}
	goFiles(t, "internal", func(path string) {
		pkgs["repro/"+filepath.ToSlash(filepath.Dir(path))] = true
	})
	if len(pkgs) == 0 {
		t.Fatal("no packages found under internal/")
	}

	imported := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"cmd", "examples", "bench", "internal"} {
		if _, err := os.Stat(root); err != nil {
			t.Fatal(err)
		}
		goFiles(t, root, func(path string) {
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			self := "repro/" + filepath.ToSlash(filepath.Dir(path))
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if p != self {
					imported[p] = true
				}
			}
		})
	}

	for p := range pkgs {
		if !imported[p] {
			t.Errorf("%s has no non-test importer in cmd/, examples/, bench/ or internal/; delete it or give it a caller", p)
		}
	}
}

// TestEveryUnexportedFuncHasAReference guards against helpers that nothing
// calls: an unexported func or method declared in a non-test file of this
// module must be used by its package's non-test code. Each package is
// type-checked (imports resolved from source), and a declaration counts as
// used when go/types resolves some identifier to it, or, for a method, when
// it implements a method of an interface type that its receiver type is
// converted to. Resolving by object rather than by name catches a per-type
// method that shadows a shared one of the same name. Code only tests use
// belongs in a _test.go file; code nothing uses is deleted.
func TestEveryUnexportedFuncHasAReference(t *testing.T) {
	l := newModuleLoader(t)
	checked := 0
	for dir := range l.files {
		p := l.load(path.Join("repro", filepath.ToSlash(dir)))
		used := map[types.Object]bool{}
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, c := range interfaceConversions(p.info, p.syntax) {
			iface := c.to.Underlying().(*types.Interface)
			for i := 0; i < iface.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(c.from, true, p.pkg, iface.Method(i).Name())
				if fn, ok := obj.(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
		for _, f := range p.syntax {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.IsExported() || fd.Name.Name == "_" {
					continue
				}
				if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main") {
					continue
				}
				checked++
				if !used[p.info.Defs[fd.Name]] {
					t.Errorf("%s: %s is used nowhere in its package's non-test code; delete it or move it to a _test.go file",
						l.fset.Position(fd.Name.Pos()), fd.Name.Name)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no unexported funcs found")
	}
}

// checkedPkg is one type-checked package of the module.
type checkedPkg struct {
	pkg    *types.Package
	info   *types.Info
	syntax []*ast.File
}

// moduleLoader type-checks the module's packages from their non-test files.
// It is their importer too, so each package is checked once; the standard
// library comes from source through go/importer.
type moduleLoader struct {
	t     *testing.T
	fset  *token.FileSet
	std   types.Importer
	files map[string][]string // package dir → non-test files
	pkgs  map[string]*checkedPkg
}

func newModuleLoader(t *testing.T) *moduleLoader {
	fset := token.NewFileSet()
	l := &moduleLoader{t: t, fset: fset, std: importer.ForCompiler(fset, "source", nil),
		files: map[string][]string{}, pkgs: map[string]*checkedPkg{}}
	goFiles(t, ".", func(path string) {
		dir := filepath.Dir(path)
		l.files[dir] = append(l.files[dir], path)
	})
	return l
}

// Import implements types.Importer.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path == "repro" || strings.HasPrefix(path, "repro/") {
		return l.load(path).pkg, nil
	}
	return l.std.Import(path)
}

// load type-checks the module package at import path, once.
func (l *moduleLoader) load(path string) *checkedPkg {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/"))
	if dir == "" {
		dir = "."
	}
	p := &checkedPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range l.files[dir] {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		p.syntax = append(p.syntax, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, p.syntax, p.info)
	if err != nil {
		l.t.Fatalf("type-check %s: %v", path, err)
	}
	p.pkg = pkg
	l.pkgs[path] = p
	return p
}

// conversion is a value of a concrete type converted to an interface type.
type conversion struct{ from, to types.Type }

// interfaceConversions lists the conversions of concrete values to interface
// types in files, explicit or implicit: assignments, variable declarations,
// call arguments, results, composite-literal elements and channel sends.
func interfaceConversions(info *types.Info, files []*ast.File) []conversion {
	var out []conversion
	add := func(to types.Type, e ast.Expr) {
		from := info.TypeOf(e)
		if to == nil || from == nil || !types.IsInterface(to) || types.IsInterface(from) {
			return
		}
		out = append(out, conversion{from, to})
	}
	var walk func(n ast.Node, results *types.Tuple)
	walk = func(n ast.Node, results *types.Tuple) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					walk(n.Body, info.Defs[n.Name].Type().(*types.Signature).Results())
				}
				return false
			case *ast.FuncLit:
				walk(n.Body, info.TypeOf(n).(*types.Signature).Results())
				return false
			case *ast.ReturnStmt:
				if results != nil && len(n.Results) == results.Len() {
					for i, e := range n.Results {
						add(results.At(i).Type(), e)
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, e := range n.Rhs {
						add(info.TypeOf(n.Lhs[i]), e)
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, e := range n.Values {
						add(info.TypeOf(n.Type), e)
					}
				}
			case *ast.SendStmt:
				if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					add(ch.Elem(), n.Value)
				}
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; tv.IsType() {
					if len(n.Args) == 1 {
						add(tv.Type, n.Args[0])
					}
					break
				}
				sig, ok := info.TypeOf(n.Fun).Underlying().(*types.Signature)
				if !ok {
					break // a builtin
				}
				for i, e := range n.Args {
					switch {
					case sig.Variadic() && i >= sig.Params().Len()-1 && !n.Ellipsis.IsValid():
						add(sig.Params().At(sig.Params().Len()-1).Type().(*types.Slice).Elem(), e)
					case i < sig.Params().Len():
						add(sig.Params().At(i).Type(), e)
					}
				}
			case *ast.CompositeLit:
				compositeConversions(info, n, add)
			}
			return true
		})
	}
	for _, f := range files {
		walk(f, nil)
	}
	return out
}

// compositeConversions reports lit's elements to add with the types of the
// fields, elements or keys they initialise.
func compositeConversions(info *types.Info, lit *ast.CompositeLit, add func(types.Type, ast.Expr)) {
	t := info.TypeOf(lit)
	if p, ok := t.Underlying().(*types.Pointer); ok { // &T{...} elided in a slice of *T
		t = p.Elem()
	}
	for i, e := range lit.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if keyed {
				if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					add(f.Type(), kv.Value)
				}
			} else if i < u.NumFields() {
				add(u.Field(i).Type(), e)
			}
		case *types.Slice, *types.Array:
			elem := u.(interface{ Elem() types.Type }).Elem()
			if keyed {
				add(elem, kv.Value)
			} else {
				add(elem, e)
			}
		case *types.Map:
			if keyed {
				add(u.Key(), kv.Key)
				add(u.Elem(), kv.Value)
			}
		}
	}
}
