package repro

// The servers of the paper need a small interface, and every exported name
// under internal/ is a claim that some other package calls it. This test
// type-checks every non-test package of both modules (this one and bench/)
// and fails on an exported internal/ name that no non-test code uses: a name
// only tests call is state and surface production carries for nothing. A
// method that implements an interface of the module or the standard library
// is used through that interface, and the fields of an anonymous struct are
// read by reflection (encoding/json), so both are exempt. A name may stay
// otherwise only on apiAllowlist, with one of three reasons; an entry whose
// name is gone, or that production now calls, fails too.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The reasons an exported name no non-test code uses may stay.
const (
	reasonHook   = "a sabotage or fault-injection hook"
	reasonOracle = "read across packages by a refactor gate or a test oracle"
	reasonItem2  = "read by ROADMAP item 2"
	reasonItem6  = "read by ROADMAP item 6"
	reasonItem8  = "read by ROADMAP item 8"
)

var apiReasons = []string{reasonHook, reasonOracle, reasonItem2, reasonItem6, reasonItem8}

// apiAllowlist names, as "pkg.Name" or "pkg.Type.Member" with pkg the path
// under internal/, the exported names that stay although no non-test code
// uses them.
var apiAllowlist = map[string]string{
	"consensus.Node.BreakHeaderBindForTest": reasonHook,
	"consensus.Node.SetProposalMutator":     reasonHook,
	"mempool.Mempool.BreakAdmissionForTest": reasonHook,
	"netsim.Mesh.BreakExpiryForTest":        reasonHook,

	// TestGoldenEffectiveConfig (internal/harness) prints what each layer
	// runs with.
	"consensus.Node.Params":  reasonOracle,
	"core.Server.Options":    reasonOracle,
	"mempool.Mempool.Config": reasonOracle,
	"netsim.Mesh.Fanout":     reasonOracle,
	"shard.Generator.Config": reasonOracle,
	// The consensus and ledger tests check every chain against the others;
	// the mempool and harness tests check a ledger's key table against its
	// pools.
	"ledger.Cluster.VerifyConsistentChains": reasonOracle,
	"mempool.Keys.Verify":                   reasonOracle,

	"core.ElemIndex.Pending":         reasonItem2,
	"mempool.Keys.Len":               reasonItem6,
	"mempool.Mempool.TombstonedKeys": reasonItem6,
}

func TestProductionAPI(t *testing.T) {
	pkgs := loadModules(t)
	use := exportedUse(pkgs, func(path string) bool { return strings.HasPrefix(path, "repro/internal/") })
	for _, msg := range apiFindings(use, apiAllowlist) {
		t.Error(msg)
	}
}

// apiFixture is a package the rule must judge the way its comments say.
const apiFixture = `package fix

import "fmt"

type T struct{ A int }

// String implements fmt.Stringer: used through the interface.
func (T) String() string { return "" }

// Unused is a method no code calls.
func (T) Unused() {}

// Dead is a function no code calls.
func Dead() {}

// Live is called below, yet allowlisted: a stale entry.
func Live() T { return T{A: 1} }

// Config's field is read by reflection only.
var Config = struct{ Field int }{}

func use() { fmt.Println(Live(), Config) }
`

// The rule is not vacuous: on the fixture it flags a test-only function and
// method and both kinds of stale entry, and passes an interface method and
// an anonymous struct's field.
func TestProductionAPISelfCheck(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	p, err := checkPackage(fset, "fix", "", []string{"fix.go"}, map[string]string{"fix.go": apiFixture}, nil, std)
	if err != nil {
		t.Fatal(err)
	}
	use := exportedUse([]*apiPackage{p}, func(path string) bool { return path == "fix" })
	got := apiFindings(use, map[string]string{"fix.Live": reasonHook, "fix.Gone": reasonHook, "fix.T.A": "reads well"})
	want := []string{
		"fix.Dead: exported, but no non-test code uses it",
		"fix.Gone: allowlisted, but no such exported name exists",
		"fix.Live: allowlisted, but non-test code uses it",
		"fix.T.A: allowlisted, but non-test code uses it",
		"fix.T.Unused: exported, but no non-test code uses it",
	}
	if !slices.Equal(got, want) {
		t.Errorf("findings on the fixture:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	bad := apiFindings(map[string]bool{"fix.Dead": false}, map[string]string{"fix.Dead": "reads well"})
	if len(bad) != 1 || !strings.Contains(bad[0], "is not one of the reasons") {
		t.Errorf("an entry with an unknown reason: %q", bad)
	}
}

// loadModules type-checks the non-test files of every package of this
// module and of bench/, and of the module packages they import.
func loadModules(t *testing.T) []*apiPackage {
	var pkgs []*apiPackage
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	loaded := map[string]*types.Package{}
	for _, dir := range []string{".", "bench"} {
		for _, lp := range goList(t, dir) {
			if lp.Standard || loaded[lp.ImportPath] != nil {
				continue
			}
			p, err := checkPackage(fset, lp.ImportPath, lp.Dir, lp.GoFiles, nil, loaded, std)
			if err != nil {
				t.Fatal(err)
			}
			loaded[lp.ImportPath] = p.pkg
			pkgs = append(pkgs, p)
		}
	}
	return pkgs
}

// listedPackage is what `go list -json` says of one package.
type listedPackage struct {
	ImportPath, Dir string
	GoFiles         []string
	Standard        bool
}

// goList lists the packages of the module in dir and their dependencies,
// each after the packages it imports.
func goList(t *testing.T, dir string) []listedPackage {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// apiPackage is one type-checked package.
type apiPackage struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// checkPackage parses the named files of dir (or, where src holds them, the
// given sources) and type-checks them as the package at path; module
// packages are taken from loaded, the standard library from std.
func checkPackage(fset *token.FileSet, path, dir string, files []string, src map[string]string,
	loaded map[string]*types.Package, std types.ImporterFrom) (*apiPackage, error) {
	var syntax []*ast.File
	for _, name := range files {
		var text any
		if src != nil {
			text = src[name]
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), text, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: importerFunc(func(p, srcDir string) (*types.Package, error) {
		if pkg := loaded[p]; pkg != nil {
			return pkg, nil
		}
		return std.ImportFrom(p, srcDir, 0)
	})}
	pkg, err := conf.Check(path, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &apiPackage{pkg, info, syntax}, nil
}

type importerFunc func(path, dir string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path, "") }
func (f importerFunc) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	return f(path, dir)
}

// exportedUse maps every exported name of the packages declares accepts,
// unless the rule exempts it, to whether code in pkgs uses it. A use of a
// generic instantiation counts for its origin.
func exportedUse(pkgs []*apiPackage, declares func(path string) bool) map[string]bool {
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
	}
	ifaces := interfacesOf(pkgs)
	use := map[string]bool{}
	for _, p := range pkgs {
		if !declares(p.pkg.Path()) {
			continue
		}
		prefix := strings.TrimPrefix(p.pkg.Path(), "repro/internal/") + "."
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				use[prefix+name] = used[obj]
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			member := func(m types.Object) {
				if m.Exported() {
					use[prefix+name+"."+m.Name()] = used[m]
				}
			}
			for m := range named.Methods() {
				if !implementsSome(named, m.Name(), ifaces) {
					member(m)
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Struct:
				for f := range u.Fields() {
					member(f)
				}
			case *types.Interface:
				for m := range u.ExplicitMethods() {
					member(m)
				}
			}
		}
	}
	return use
}

// origin maps a field or method of a generic instantiation to its declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// interfacesOf returns every named interface with methods that pkgs and the
// packages they import declare, and error.
func interfacesOf(pkgs []*apiPackage) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.pkg)
	}
	return ifaces
}

// implementsSome reports whether named or a pointer to it implements an
// interface of ifaces that has a method called method.
func implementsSome(named *types.Named, method string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, nil, method); m != nil &&
			(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// apiFindings checks use against allow: a name no non-test code uses needs an
// entry, and an entry needs one of the reasons and a name that exists and
// that production does not use.
func apiFindings(use map[string]bool, allow map[string]string) []string {
	var out []string
	for name, used := range use {
		if !used && allow[name] == "" {
			out = append(out, fmt.Sprintf("%s: exported, but no non-test code uses it", name))
		}
	}
	for name, reason := range allow {
		used, ok := use[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: allowlisted, but no such exported name exists", name))
		case used:
			out = append(out, fmt.Sprintf("%s: allowlisted, but non-test code uses it", name))
		case !slices.Contains(apiReasons, reason):
			out = append(out, fmt.Sprintf("%s: allowlist reason %q is not one of the reasons", name, reason))
		}
	}
	slices.Sort(out)
	return out
}
