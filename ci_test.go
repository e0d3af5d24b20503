package repro

// `go test -fuzz FuzzNoSuchTarget ./pkg` prints "no fuzz tests to fuzz" and
// exits 0, so a CI fuzz line naming a deleted or renamed target passes
// without fuzzing anything, and a new target nobody lists is never fuzzed.
// This test holds the fuzz job's explicit list to the tree's targets, in
// both directions.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ciFuzzLine is one line of the fuzz job: a target and its package path.
var ciFuzzLine = regexp.MustCompile(`go test -run '\^\$' -fuzz (\S+) -fuzztime \S+ (\S+)`)

func TestCIFuzzesEveryTarget(t *testing.T) {
	blob, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	_, job, ok := strings.Cut(string(blob), "\n  fuzz:\n")
	if !ok {
		t.Fatal("ci.yml has no fuzz job")
	}
	inCI := map[string]bool{}
	for _, m := range ciFuzzLine.FindAllStringSubmatch(job, -1) {
		target := m[2] + " " + m[1]
		if inCI[target] {
			t.Errorf("ci.yml fuzzes %s twice", target)
		}
		inCI[target] = true
	}

	inTree := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// testdata, hidden directories and nested modules (bench/) are
			// outside what `go test ./...` from the root builds.
			_, modErr := os.Stat(filepath.Join(path, "go.mod"))
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || modErr == nil) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && isFuzzTarget(fn) {
				inTree["./"+filepath.ToSlash(filepath.Dir(path))+" "+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(inTree) == 0 {
		t.Fatal("found no fuzz targets in the tree")
	}

	for _, target := range slices.Sorted(maps.Keys(inTree)) {
		if !inCI[target] {
			t.Errorf("fuzz target %s has no line in ci.yml's fuzz job", target)
		}
	}
	for _, target := range slices.Sorted(maps.Keys(inCI)) {
		if !inTree[target] {
			t.Errorf("ci.yml's fuzz job names %s, which is not a fuzz target in that package", target)
		}
	}
}

// isFuzzTarget reports whether fn is what `go test -fuzz` runs:
// func FuzzXxx(f *testing.F).
func isFuzzTarget(fn *ast.FuncDecl) bool {
	if !strings.HasPrefix(fn.Name.Name, "Fuzz") || fn.Type.Params.NumFields() != 1 {
		return false
	}
	star, ok := fn.Type.Params.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == "F"
}
