package main

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// Only stack.go may import the program under test, so that when the
// composition root moves a benchmark issue re-points one file.
func TestOnlyStackImportsInternalPackages(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	stackImports := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !strings.HasPrefix(path, "repro/") {
				continue
			}
			if name != "stack.go" {
				t.Errorf("%s imports %s: only stack.go may import repro/...", name, path)
			} else {
				stackImports++
			}
		}
	}
	if stackImports == 0 {
		t.Error("stack.go imports nothing from repro/...: the test is looking at the wrong files")
	}
}
