package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The module is type-checked once and shared by the tests below.
var (
	moduleOnce sync.Once
	module     *moduleLoader
	moduleErr  error
)

func loadModule(t *testing.T) *moduleLoader {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = newModuleLoader() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

// TestEveryInternalPackageHasACaller guards against code that nothing runs:
// every non-test package under internal/ must be imported by a non-test file
// of cmd/, examples/, bench/ or another internal/ package. A package only
// its own tests exercise is dead weight to delete, not to maintain.
func TestEveryInternalPackageHasACaller(t *testing.T) {
	l := loadModule(t)
	imported := map[string]bool{}
	internal := 0
	for _, d := range l.dirs {
		if d.pkg == nil {
			continue // a test-only package
		}
		if strings.HasPrefix(d.dir, "internal"+string(filepath.Separator)) {
			internal++
		}
		for _, imp := range d.pkg.Imports() {
			imported[imp.Path()] = true
		}
	}
	if internal == 0 {
		t.Fatal("no packages found under internal/")
	}
	for _, d := range l.dirs {
		if d.pkg != nil && strings.HasPrefix(d.dir, "internal"+string(filepath.Separator)) && !imported[d.path] {
			t.Errorf("%s has no non-test importer in cmd/, examples/, bench/ or internal/; delete it or give it a caller", d.path)
		}
	}
}

// TestEveryDeclarationHasACaller guards against code that only tests, or
// nothing, runs: every top-level func, method, type, const and var declared
// in a non-test file of this module must have a caller. Each package of the
// module is type-checked from source, and a declaration counts as used when
//
//   - an identifier of non-test code (bench/ included) resolves to it;
//   - it is a method of an interface its type is converted to, including
//     through interface-to-interface conversions, type assertions, type
//     switches and generic type arguments checked against their constraint;
//   - it is a method fmt or encoding/json finds by asserting a value passed
//     as any, or a field or element of one, to one of their interfaces
//     (String, Error, MarshalJSON, ...);
//   - an identifier or a conversion in another package's tests reaches it,
//     since Go gives such a shared test helper no _test.go home.
//
// Resolving by object rather than by name catches a per-type method that
// shadows a shared one of the same name. Code only its own package's tests
// use belongs in a _test.go file; code nothing uses is deleted. The fields
// subtest asks the same of struct fields: each must be read somewhere
// (checkFieldsRead).
func TestEveryDeclarationHasACaller(t *testing.T) {
	l := loadModule(t)
	used, read, err := l.usedDeclarations()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("fields", func(t *testing.T) { checkFieldsRead(t, l, read) })
	var missing []string
	checked := 0
	for _, d := range l.dirs {
		if d.callerOnly {
			continue
		}
		for _, f := range d.files {
			for _, decl := range f.Decls {
				for _, id := range declaredNames(decl) {
					if id.Name == "_" || runByLanguage(decl, d.pkg) {
						continue
					}
					checked++
					if key := declKey(d.info.Defs[id]); !used[key] {
						missing = append(missing, fmt.Sprintf("%s: %s", l.fset.Position(id.Pos()), strings.TrimPrefix(key, d.path+".")))
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no declarations found")
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no caller outside its own package's tests; delete it or move it to a _test.go file", m)
	}
}

// runByLanguage reports whether decl is an init func, or main of a
// command: the runtime calls them.
func runByLanguage(decl ast.Decl, pkg *types.Package) bool {
	fd, ok := decl.(*ast.FuncDecl)
	return ok && fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && pkg.Name() == "main")
}

// declaredNames lists the names a top-level declaration introduces.
func declaredNames(decl ast.Decl) []*ast.Ident {
	switch decl := decl.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{decl.Name}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range decl.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

// declKey names a package-level object or a method of a named type the same
// way in every type-checked variant of its package ("" for anything else):
// the import path, the receiver type for a method, and the name.
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok {
				return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// checkFieldsRead fails for every named struct field declared in a non-test
// file that nothing reads. A field is read when an identifier of the module
// (tests and bench/ included) resolves to it outside the target of an
// assignment, an op-assignment or ++/--, or a composite-literal key, or when
// fmt, encoding/json, log or testing walks its struct: non-test code or
// another package's tests pass it as any, directly or inside a value that
// reflectedTypes walks into. Tests count as readers because a field has no
// _test.go home. Embedded fields are not checked: they promote their type's
// fields and methods.
func checkFieldsRead(t *testing.T, l *moduleLoader, read map[token.Pos]bool) {
	var missing []string
	checked := 0
	for _, d := range l.dirs {
		if d.callerOnly {
			continue
		}
		for _, f := range d.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if st, ok := n.(*ast.StructType); ok {
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if id.Name == "_" {
								continue
							}
							checked++
							if !read[id.Pos()] {
								missing = append(missing, fmt.Sprintf("%s: %s", l.fset.Position(id.Pos()), id.Name))
							}
						}
					}
				}
				return true
			})
		}
	}
	if checked == 0 {
		t.Fatal("no struct fields found")
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("field %s is stored but never read; delete it with the code that only feeds it", m)
	}
}

// usedDeclarations returns the keys (declKey) of every declaration the
// module's callers reach, and the positions of the struct fields they read,
// by the rules of TestEveryDeclarationHasACaller.
func (l *moduleLoader) usedDeclarations() (map[string]bool, map[token.Pos]bool, error) {
	used, read := map[string]bool{}, map[token.Pos]bool{}
	var walked []types.Type
	convs, err := l.stdAssertions()
	if err != nil {
		return nil, nil, err
	}
	for _, d := range l.dirs {
		if d.info != nil {
			for _, obj := range d.info.Uses {
				used[declKey(obj)] = true
			}
			walked = append(walked, fieldReads(d.info, d.files, read)...)
			convs = append(convs, interfaceConversions(d.info, d.files)...)
		}
		tc, tw, err := l.testUses(d, used, read)
		if err != nil {
			return nil, nil, err
		}
		convs, walked = append(convs, tc...), append(walked, tw...)
	}
	for seen := map[string]bool{}; len(walked) > 0; {
		t := walked[len(walked)-1]
		walked = walked[:len(walked)-1]
		if seen[typeKey(t)] {
			continue
		}
		seen[typeKey(t)] = true
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				read[st.Field(i).Pos()] = true // fmt prints every field, json encodes the exported ones
			}
		}
		walked = append(walked, reflectedTypes(t)...)
	}
	for _, c := range reachedConversions(convs) {
		iface := c.to.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(c.from, true, m.Pkg(), m.Name())
			used[declKey(obj)] = true
		}
	}
	return used, read, nil
}

// fieldReads marks in read the struct fields that identifiers in files
// read: every use of a field except as the target of an assignment, an
// op-assignment or ++/--, or as a composite-literal key. It returns the
// types of the values files pass as any to fmt, encoding/json, log or
// testing, which walk their fields.
func fieldReads(info *types.Info, files []*ast.File, read map[token.Pos]bool) []types.Type {
	var walked []types.Type
	for _, f := range files {
		written := map[*ast.Ident]bool{}
		target := func(e ast.Expr) {
			if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				written[s.Sel] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool { // a statement comes before its identifiers
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					target(e)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					written[id] = true
				}
			case *ast.Ident:
				if v, ok := info.Uses[n].(*types.Var); ok && v.IsField() && !written[n] {
					read[v.Origin().Pos()] = true
				}
			case *ast.CallExpr:
				walked = append(walked, reflectedArgs(info, n)...)
			}
			return true
		})
	}
	return walked
}

// reflectedArgs returns the types of call's arguments that it passes as any
// to a function of fmt, encoding/json, log or testing.
func reflectedArgs(info *types.Info, call *ast.CallExpr) []types.Type {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	switch fn.Pkg().Path() {
	case "fmt", "encoding/json", "log", "testing":
	default:
		return nil
	}
	sig := fn.Type().(*types.Signature)
	var out []types.Type
	for i, e := range call.Args {
		pt := argType(sig, call, i)
		if pt != nil && types.IsInterface(pt) && pt.Underlying().(*types.Interface).Empty() {
			out = append(out, info.TypeOf(e))
		}
	}
	return out
}

// argType returns the type of the parameter that argument i of call, a
// call of a function with signature sig, is passed as (nil for none).
func argType(sig *types.Signature, call *ast.CallExpr, i int) types.Type {
	switch n := sig.Params().Len(); {
	case sig.Variadic() && i >= n-1 && !call.Ellipsis.IsValid():
		return sig.Params().At(n - 1).Type().(*types.Slice).Elem()
	case i < n:
		return sig.Params().At(i).Type()
	}
	return nil
}

// stdAssertions lists the interfaces fmt and encoding/json assert a value
// passed as any to, as assertions from the empty interface.
func (l *moduleLoader) stdAssertions() ([]conversion, error) {
	empty := types.Universe.Lookup("any").Type()
	out := []conversion{{from: empty, to: types.Universe.Lookup("error").Type(), assert: true}}
	for pkg, names := range map[string][]string{
		"fmt":           {"Stringer", "GoStringer", "Formatter"},
		"encoding":      {"TextMarshaler", "TextUnmarshaler"},
		"encoding/json": {"Marshaler", "Unmarshaler"},
	} {
		p, err := l.Import(pkg)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			out = append(out, conversion{from: empty, to: p.Scope().Lookup(name).Type(), assert: true})
		}
	}
	return out, nil
}

// reachedConversions closes convs over interface-to-interface edges: a
// concrete type converted to I1 also reaches I2 when I1 is converted to I2,
// or asserted to I2 and the type implements it. It returns the concrete
// conversions, each once.
func reachedConversions(convs []conversion) []conversion {
	edges := map[string][]conversion{} // by the source interface
	var reached []conversion
	seen := map[string]bool{}
	add := func(c conversion) {
		if k := typeKey(c.from) + " → " + typeKey(c.to); !seen[k] {
			seen[k] = true
			reached = append(reached, c)
		}
	}
	for _, c := range convs {
		if types.IsInterface(c.from) {
			edges[typeKey(c.from)] = append(edges[typeKey(c.from)], c)
		} else {
			add(c)
		}
	}
	for i := 0; i < len(reached); i++ {
		c := reached[i]
		for _, e := range edges[typeKey(c.to)] {
			if iface, ok := e.to.Underlying().(*types.Interface); ok && (!e.assert || implements(c.from, iface)) {
				add(conversion{from: c.from, to: e.to})
			}
		}
		if c.to.Underlying().(*types.Interface).Empty() {
			for _, t := range reflectedTypes(c.from) {
				if !types.IsInterface(t) {
					add(conversion{from: t, to: c.to})
				}
			}
		}
	}
	return reached
}

// implements reports whether a value of type t, or an addressable one (a
// field json decodes into), has iface's methods.
func implements(t types.Type, iface *types.Interface) bool {
	if _, ok := t.Underlying().(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	return types.Implements(t, iface)
}

// typeKey names t the same way in every type-checked variant of its package.
func typeKey(t types.Type) string { return types.TypeString(types.Unalias(t), nil) }

// reflectedTypes lists the types fmt and encoding/json walk into inside a
// value of type t passed as any: the pointee, elements, map keys and values,
// and exported struct fields.
func reflectedTypes(t types.Type) []types.Type {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return []types.Type{u.Elem()}
	case *types.Slice:
		return []types.Type{u.Elem()}
	case *types.Array:
		return []types.Type{u.Elem()}
	case *types.Map:
		return []types.Type{u.Key(), u.Elem()}
	case *types.Struct:
		var out []types.Type
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() {
				out = append(out, f.Type())
			}
		}
		return out
	}
	return nil
}

// testUses marks the module declarations outside d that d's test files
// use, and the fields they read, and returns the conversions of other
// packages' types in them.
// In-package tests are checked with d's non-test files, as the go tool
// builds them; an external test package imports that variant of d.
func (l *moduleLoader) testUses(d *pkgDir, used map[string]bool, read map[token.Pos]bool) ([]conversion, []types.Type, error) {
	var convs []conversion
	var walked []types.Type
	mark := func(info *types.Info, files []*ast.File) {
		for _, t := range fieldReads(info, files, read) {
			if !declaredIn(t, d.path) {
				walked = append(walked, t)
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() != d.path {
						used[declKey(obj)] = true
					}
				}
				return true
			})
		}
		for _, c := range interfaceConversions(info, files) {
			if !types.IsInterface(c.from) && !declaredIn(c.from, d.path) {
				convs = append(convs, c)
			}
		}
	}
	self := d.pkg
	if len(d.tests) > 0 {
		pkg, info, err := l.check(d.path, append(append([]*ast.File{}, d.files...), d.tests...), l)
		if err != nil {
			return nil, nil, err
		}
		mark(info, d.tests)
		self = pkg
	}
	if len(d.xtests) > 0 {
		ti := &testImporter{l: l, under: d.path, pkgs: map[string]*types.Package{d.path: self}}
		_, info, err := l.check(d.path+"_test", d.xtests, ti)
		if err != nil {
			return nil, nil, err
		}
		mark(info, d.xtests)
	}
	return convs, walked, nil
}

// declaredIn reports whether t, or the type t points to, is declared in the
// package at path or its external test package.
func declaredIn(t types.Type, path string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj().Pkg() != nil && strings.TrimSuffix(n.Obj().Pkg().Path(), "_test") == path
}

// pkgDir is one package directory of the module, its non-test files
// type-checked.
type pkgDir struct {
	dir, path  string
	callerOnly bool // bench/: a caller, its own declarations not checked
	files      []*ast.File
	tests      []*ast.File // in-package _test.go files
	xtests     []*ast.File // external test package files
	pkg        *types.Package
	info       *types.Info
}

// moduleLoader type-checks the module's packages from their files. It is
// their importer too, so each package is checked once; the standard library
// comes from its export data.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]*pkgDir // by import path
}

// newModuleLoader parses the module and bench/ (a nested module that calls
// it) and type-checks every non-test package.
func newModuleLoader() (*moduleLoader, error) {
	fset := token.NewFileSet()
	l := &moduleLoader{fset: fset, dirs: map[string]*pkgDir{}}
	std := map[string]bool{}
	for _, root := range []string{".", "bench"} {
		err := goFiles(root, func(name string) error {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.Dir(name)
			p := path.Join("repro", filepath.ToSlash(dir))
			d := l.dirs[p]
			if d == nil {
				d = &pkgDir{dir: dir, path: p, callerOnly: root == "bench"}
				l.dirs[p] = d
			}
			for _, imp := range f.Imports {
				std[strings.Trim(imp.Path.Value, `"`)] = true
			}
			switch {
			case !strings.HasSuffix(name, "_test.go"):
				d.files = append(d.files, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				d.xtests = append(d.xtests, f)
			default:
				d.tests = append(d.tests, f)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for p := range l.dirs {
		delete(std, p)
	}
	var err error
	if l.std, err = stdImporter(fset, std); err != nil {
		return nil, err
	}
	for p, d := range l.dirs {
		if len(d.files) == 0 {
			continue // a test-only package
		}
		if _, err := l.Import(p); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// stdImporter imports the standard library packages in paths, and their
// dependencies, from the export data the go tool builds for them: checking
// them from source would take most of this file's run time.
func stdImporter(fset *token.FileSet, paths map[string]bool) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{if .Standard}}{{.ImportPath}}={{.Export}}{{end}}"}
	for p := range paths {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Fields(string(out)) {
		p, file, _ := strings.Cut(line, "=")
		export[p] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := export[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	}), nil
}

// goFiles calls fn for every .go file under root, skipping testdata and
// hidden or underscore-prefixed directories as the go tool does, and nested
// modules (a directory below root with its own go.mod).
func goFiles(root string, fn func(path string) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		if strings.HasSuffix(path, ".go") {
			return fn(path)
		}
		return nil
	})
}

// Import implements types.Importer.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	d := l.dirs[path]
	if d == nil {
		return l.std.Import(path)
	}
	if d.pkg == nil {
		pkg, info, err := l.check(path, d.files, l)
		if err != nil {
			return nil, err
		}
		d.pkg, d.info = pkg, info
	}
	return d.pkg, nil
}

// check type-checks files as the package at import path.
func (l *moduleLoader) check(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:     map[ast.Expr]types.TypeAndValue{},
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return pkg, info, nil
}

// imports reports whether the package at path imports under, directly or
// not, through module packages.
func (l *moduleLoader) imports(path, under string) bool {
	d := l.dirs[path]
	if d == nil {
		return false
	}
	for _, imp := range d.pkg.Imports() {
		if imp.Path() == under || l.imports(imp.Path(), under) {
			return true
		}
	}
	return false
}

// testImporter resolves the imports of an external test package the way
// the go tool builds them: the package under test with its in-package test
// files, and every module package that imports it rechecked against that
// variant.
type testImporter struct {
	l     *moduleLoader
	under string
	pkgs  map[string]*types.Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if p, ok := ti.pkgs[path]; ok {
		return p, nil
	}
	if !ti.l.imports(path, ti.under) {
		return ti.l.Import(path)
	}
	pkg, _, err := ti.l.check(path, ti.l.dirs[path].files, ti)
	if err != nil {
		return nil, err
	}
	ti.pkgs[path] = pkg
	return pkg, nil
}

// conversion is a value of type from converted, or asserted, to the
// interface type to.
type conversion struct {
	from, to types.Type
	assert   bool // a type assertion or type switch case: only values that implement to pass
}

// interfaceConversions lists the conversions to interface types in files,
// explicit or implicit: assignments, variable declarations, call arguments,
// results, composite-literal elements, channel sends and generic type
// arguments (to their constraint), plus the type assertions and type switch
// cases from one interface type to another.
func interfaceConversions(info *types.Info, files []*ast.File) []conversion {
	var out []conversion
	add := func(to types.Type, e ast.Expr) {
		if from := info.TypeOf(e); from != nil {
			out = appendConversion(out, conversion{from: from, to: to})
		}
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
			case *ast.TypeAssertExpr:
				if n.Type != nil {
					out = appendConversion(out, conversion{from: info.TypeOf(n.X), to: info.TypeOf(n.Type), assert: true})
				}
			case *ast.TypeSwitchStmt:
				var x ast.Expr
				switch s := n.Assign.(type) {
				case *ast.ExprStmt:
					x = s.X.(*ast.TypeAssertExpr).X
				case *ast.AssignStmt:
					x = s.Rhs[0].(*ast.TypeAssertExpr).X
				}
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						out = appendConversion(out, conversion{from: info.TypeOf(x), to: info.TypeOf(e), assert: true})
					}
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
					if pt := argType(sig, n, i); pt != nil {
						add(pt, e)
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
	for id, inst := range info.Instances {
		var tparams *types.TypeParamList
		switch t := info.Uses[id].Type().(type) {
		case *types.Named:
			tparams = t.TypeParams()
		case *types.Signature:
			tparams = t.TypeParams()
		}
		for i := 0; i < inst.TypeArgs.Len() && i < tparams.Len(); i++ {
			// Only a constraint's methods can be called on a type argument.
			if c := tparams.At(i).Constraint(); c.Underlying().(*types.Interface).NumMethods() > 0 {
				out = appendConversion(out, conversion{from: inst.TypeArgs.At(i), to: c})
			}
		}
	}
	return out
}

// appendConversion appends c when it converts to an interface type from a
// different type, and neither end is a type parameter.
func appendConversion(out []conversion, c conversion) []conversion {
	if c.from == nil || c.to == nil || !types.IsInterface(c.to) || types.Identical(c.from, c.to) {
		return out
	}
	_, fromParam := c.from.(*types.TypeParam)
	_, toParam := c.to.(*types.TypeParam)
	if fromParam || toParam {
		return out
	}
	return append(out, c)
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
