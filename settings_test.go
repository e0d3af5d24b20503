package repro

// A field of a configuration struct is a setting, and a setting only its
// constructor ever sets takes one value: a constant says so with less
// code, and spares every test and benchmark the configurations nobody
// runs. This test type-checks every non-test package of both modules (this
// one and bench/) and fails on a field of settingStructs that no non-test
// code writes outside its own package's Paper* and Default* constructors. A
// write is a keyed composite literal or an assignment through a selector,
// `lcfg.Net.ExtraDelay = …`. A field may stay otherwise only on
// settingsAllowlist, with its reason; an entry whose field is gone, or that
// non-test code now writes, fails too.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// settingStructs are the configuration structs under the rule, as
// "pkg.Type" with pkg the path under internal/.
var settingStructs = []string{"core.Options", "consensus.Params", "mempool.Config", "netsim.Config"}

// settingsAllowlist names, as "pkg.Type.Field", the fields that stay
// although only their constructor sets them, each with its reason.
var settingsAllowlist = map[string]string{
	"consensus.Params.MaxBlockBytes": "the paper's block size C, which ROADMAP item 7(a) sweeps",
	"netsim.Config.BaseLatency":      "netsim's tests assert exact delivery instants on a jitter-free 1 ms link",
	"netsim.Config.Jitter":           "netsim's tests assert exact delivery instants on a jitter-free 1 ms link",
}

func TestSettingsAreSet(t *testing.T) {
	written := settingWrites(loadModules(t), settingStructs, func(path string) string {
		return strings.TrimPrefix(path, "repro/internal/")
	})
	for _, msg := range settingFindings(written, settingsAllowlist) {
		t.Error(msg)
	}
}

// settingsFixture is a package the rule must judge the way its comments say.
const settingsFixture = `package fix

type Config struct{ A, B, C int }

// DefaultConfig sets every field, which counts for none of them.
func DefaultConfig() Config { return Config{A: 1, B: 2, C: 3} }

func use() Config {
	c := DefaultConfig()
	c.B = 4
	return Config{C: c.A}
}
`

// The rule is not vacuous: on the fixture it flags a field only the
// constructor writes and both kinds of stale entry, and passes fields an
// assignment and a keyed literal write.
func TestSettingsAreSetSelfCheck(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	p, err := checkPackage(fset, "fix", "", []string{"fix.go"}, map[string]string{"fix.go": settingsFixture}, nil, std)
	if err != nil {
		t.Fatal(err)
	}
	written := settingWrites([]*apiPackage{p}, []string{"fix.Config"}, func(path string) string { return path })
	got := settingFindings(written, map[string]string{"fix.Config.B": "reads well", "fix.Config.D": "reads well"})
	want := []string{
		"fix.Config.A: only its constructor sets it",
		"fix.Config.B: allowlisted, but non-test code sets it",
		"fix.Config.D: allowlisted, but no such field exists",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings on the fixture:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// settingWrites maps every field of the named structs, as "pkg.Type.Field"
// with pkg the name trim gives its package's path, to whether code in pkgs
// writes it outside the Paper* and Default* functions of that package.
func settingWrites(pkgs []*apiPackage, structs []string, trim func(path string) string) map[string]bool {
	names := map[*types.Var]string{}
	for _, p := range pkgs {
		for _, st := range structs {
			pkg, typ, _ := strings.Cut(st, ".")
			if trim(p.pkg.Path()) != pkg {
				continue
			}
			fields := p.pkg.Scope().Lookup(typ).Type().Underlying().(*types.Struct).Fields()
			for f := range fields {
				names[f] = st + "." + f.Name()
			}
		}
	}
	written := map[string]bool{}
	for _, name := range names {
		written[name] = false
	}
	for _, p := range pkgs {
		for _, file := range p.files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				constructor := ok && fn.Recv == nil &&
					(strings.HasPrefix(fn.Name.Name, "Paper") || strings.HasPrefix(fn.Name.Name, "Default"))
				write := func(id *ast.Ident) {
					f, ok := p.info.Uses[id].(*types.Var)
					if name := names[f]; ok && name != "" && !(constructor && f.Pkg() == p.pkg) {
						written[name] = true
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									write(id)
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								write(sel.Sel)
							}
						}
					case *ast.IncDecStmt:
						if sel, ok := n.X.(*ast.SelectorExpr); ok {
							write(sel.Sel)
						}
					}
					return true
				})
			}
		}
	}
	return written
}

// settingFindings checks written against allow: a field no non-test code
// sets outside its constructor needs an entry, and an entry needs a field
// that exists and that nothing else sets.
func settingFindings(written map[string]bool, allow map[string]string) []string {
	var out []string
	for name, w := range written {
		if !w && allow[name] == "" {
			out = append(out, fmt.Sprintf("%s: only its constructor sets it", name))
		}
	}
	for name := range allow {
		w, ok := written[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: allowlisted, but no such field exists", name))
		case w:
			out = append(out, fmt.Sprintf("%s: allowlisted, but non-test code sets it", name))
		}
	}
	slices.Sort(out)
	return out
}
