package repro

import (
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
// testdata and hidden or underscore-prefixed directories as the go tool does.
func goFiles(t *testing.T, root string, fn func(path string)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
