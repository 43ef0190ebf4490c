package elmo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFuzzTargetsAllRun: the Makefile's `fuzz` target — the list CI's
// fuzz job runs — names exactly the fuzz functions declared in the
// tree, each as package:Name for the package under internal/, so a new
// decoder's fuzz target cannot be left out of it.
func TestFuzzTargetsAllRun(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)\nfuzz:.*?for t in (.*?); do`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("no `for t in …; do` list in the Makefile's fuzz target")
	}
	var listed []string
	for _, f := range strings.Fields(strings.ReplaceAll(string(m[1]), "\\\n", " ")) {
		pkg, name, _ := strings.Cut(f, ":")
		listed = append(listed, "internal/"+pkg+"."+name)
	}

	var declared []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				declared = append(declared, filepath.ToSlash(filepath.Dir(path))+"."+fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(listed)
	slices.Sort(declared)
	if !slices.Equal(listed, declared) {
		t.Fatalf("make fuzz runs %v; the tree declares %v", listed, declared)
	}
}
