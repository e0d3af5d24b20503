package repro

// harness.RunMany runs scenarios side by side on the premise that a result
// is a pure function of its Scenario, and tests run beside each other on the
// same premise. A package-level variable that production code mutates breaks
// it: one run (or one test) reaches into every other. This test walks the
// production Go files and fails on the two shapes such state takes — a
// package-level var declared without an initializer (a switch, a counter, a
// pointer filled in later), and a package-level name ending in ForTest (a
// sabotage hook that is not a method on the instance it breaks).

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// bareVarsAllowed are the package-level vars that may be declared without
// an initializer, as "dir.name": the spec registry, filled by Register
// from init functions before main runs.
var bareVarsAllowed = map[string]bool{"internal/spec.registry": true}

func TestNoPackageLevelState(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
	report := func(pos token.Pos, format string, args ...any) {
		found = append(found, fmt.Sprintf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...)))
	}
	for _, root := range []string{"internal", "cmd", "setchain", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil && strings.HasSuffix(decl.Name.Name, "ForTest") {
						report(decl.Pos(), "func %s is a package-level test hook", decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range decl.Specs {
						switch s := s.(type) {
						case *ast.ValueSpec:
							for _, name := range s.Names {
								switch {
								case strings.HasSuffix(name.Name, "ForTest"):
									report(name.Pos(), "%s %s is a package-level test hook", decl.Tok, name.Name)
								case decl.Tok == token.VAR && len(s.Values) == 0 && !bareVarsAllowed[dir+"."+name.Name]:
									report(name.Pos(), "var %s has no initializer", name.Name)
								}
							}
						case *ast.TypeSpec:
							if strings.HasSuffix(s.Name.Name, "ForTest") {
								report(s.Pos(), "type %s is a package-level test hook", s.Name.Name)
							}
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(found) > 0 {
		t.Errorf("package-level state in production code (make it a field of the value that owns it):\n%s",
			strings.Join(found, "\n"))
	}
}
