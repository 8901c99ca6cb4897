package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
// module must have its name appear again among the identifiers of its
// package's non-test files. Code only tests use belongs in a _test.go file;
// code nothing uses is deleted. A name shared with another identifier of the
// package counts as a reference, so the check can miss dead code but never
// flags live code.
func TestEveryUnexportedFuncHasAReference(t *testing.T) {
	type decl struct {
		pos  token.Position
		name string
	}
	decls := map[string][]decl{}          // package dir → unexported funcs
	idents := map[string]map[string]int{} // package dir → identifier → count
	fset := token.NewFileSet()
	goFiles(t, ".", func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Dir(path)
		if idents[dir] == nil {
			idents[dir] = map[string]int{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				idents[dir][id.Name]++
			}
			return true
		})
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.IsExported() || fd.Name.Name == "_" {
				continue
			}
			if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main") {
				continue
			}
			decls[dir] = append(decls[dir], decl{fset.Position(fd.Name.Pos()), fd.Name.Name})
		}
	})
	if len(decls) == 0 {
		t.Fatal("no unexported funcs found")
	}
	for dir, ds := range decls {
		for _, d := range ds {
			if idents[dir][d.name] < 2 {
				t.Errorf("%s: %s is referenced nowhere in its package's non-test code; delete it or move it to a _test.go file", d.pos, d.name)
			}
		}
	}
}
