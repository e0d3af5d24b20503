package repro

// The top-level docs cross-reference each other heavily, and two of them
// (EXPERIMENTS.md, RESULTS.md) are generated — a renderer change can
// silently rot a link. This test walks every markdown link in the
// committed docs and verifies relative file targets exist and intra-file
// anchors resolve to a heading, so CI catches dead references the same
// way docs-sync catches stale content. External http(s) links are
// skipped: CI must not depend on the network.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
	"unsafe"

	"repro/internal/collector"
	"repro/internal/compressor"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/setcrypto"
	"repro/internal/wire"
)

// docFiles are the checked documents; generated ones included.
var docFiles = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", "RESULTS.md",
	"PAPER.md", "CHANGES.md", "examples/specs/README.md",
}

var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

func TestDocLinks(t *testing.T) {
	for _, doc := range docFiles {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Errorf("%s: %v", doc, err)
			continue
		}
		text := string(blob)
		for _, m := range linkRE.FindAllStringSubmatch(stripCodeFences(text), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, anchor, _ := strings.Cut(target, "#")
			if path == "" { // same-file anchor
				if !hasAnchor(text, anchor) {
					t.Errorf("%s: dead anchor link %q", doc, target)
				}
				continue
			}
			resolved := filepath.Join(filepath.Dir(doc), path)
			info, err := os.Stat(resolved)
			if err != nil {
				t.Errorf("%s: dead link %q (%v)", doc, target, err)
				continue
			}
			if anchor != "" && !info.IsDir() {
				dest, err := os.ReadFile(resolved)
				if err != nil {
					t.Errorf("%s: link %q: %v", doc, target, err)
					continue
				}
				if !hasAnchor(string(dest), anchor) {
					t.Errorf("%s: link %q: no heading for anchor #%s in %s",
						doc, target, anchor, path)
				}
			}
		}
	}
}

// hasAnchor reports whether the markdown contains a heading whose
// GitHub-style slug matches the anchor. Fenced code blocks are skipped
// (their # lines are not headings) but inline code in a heading keeps
// its text: GitHub slugs "## `foo` flags" as "foo-flags".
func hasAnchor(text, anchor string) bool {
	inFence := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimLeft(line, "#")
		if slugify(heading) == anchor {
			return true
		}
	}
	return false
}

// slugify approximates GitHub's heading-to-anchor rule: lowercase, keep
// letters/digits/hyphens/underscores, map spaces to hyphens, and drop
// punctuation — including the em dashes the generated headings use, so
// "fig1 — Fig. 1" slugs to "fig1--fig-1" exactly as GitHub renders it.
func slugify(heading string) string {
	heading = strings.TrimSpace(strings.ToLower(heading))
	var b strings.Builder
	for _, r := range heading {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// stripCodeFences blanks fenced code blocks and inline code spans so
// sample snippets cannot register links or headings.
func stripCodeFences(text string) string {
	var out []string
	inFence := false
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			out = append(out, "")
			continue
		}
		if inFence {
			out = append(out, "")
			continue
		}
		out = append(out, stripInlineCode(line))
	}
	return strings.Join(out, "\n")
}

func stripInlineCode(line string) string {
	var b strings.Builder
	in := false
	for _, r := range line {
		switch {
		case r == '`':
			in = !in
		case in:
			b.WriteRune(' ')
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Pin the GitHub slug rules the checker approximates: punctuation (em
// dashes, dots, backticks) drops out, spaces become hyphens, inline-code
// text in headings is kept.
func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"fig1 — Fig. 1":      "fig1--fig-1",
		"`setchain` flags":   "setchain-flags",
		"Fault injection &_": "fault-injection-_",
		"  Results  ":        "results",
	}
	for heading, want := range cases {
		if got := slugify(heading); got != want {
			t.Errorf("slugify(%q) = %q, want %q", heading, got, want)
		}
	}
	doc := "```\n# not a heading\n```\n## `real` heading\n"
	if hasAnchor(doc, "not-a-heading") {
		t.Error("fenced # line must not register as a heading")
	}
	if !hasAnchor(doc, "real-heading") {
		t.Error("inline code in a heading must keep its text in the slug")
	}
}

// Every doc this test checks must exist — a rename that forgets to
// update docFiles should fail loudly, not shrink coverage silently.
func TestDocFilesExist(t *testing.T) {
	for _, doc := range docFiles {
		if _, err := os.Stat(doc); err != nil {
			t.Error(fmt.Errorf("docFiles entry unreadable: %w", err))
		}
	}
}

// layoutRow is one row of README's Layout table; its first cell names
// packages as `internal/x`, `y`, … (later names share the first's parent).
var layoutRow = regexp.MustCompile("^\\| (`[^|]*`) \\|")

// README's Layout table names every package under internal/ and nothing
// that is gone: a package added, moved or deleted without its row fails here.
func TestLayoutNamesEveryPackage(t *testing.T) {
	blob, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(blob), "\n## Layout\n")
	table, _, _ = strings.Cut(table, "\n## ")
	listed := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		m := layoutRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		parent := ""
		for _, name := range strings.Split(m[1], ", ") {
			name = strings.Trim(name, "`")
			if dir, _, ok := strings.Cut(name, "/"); ok {
				parent = dir + "/"
			} else {
				name = parent + name
			}
			if strings.HasPrefix(name, "internal/") {
				listed[name] = true
			}
		}
	}
	pkgs := map[string]bool{}
	err = filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		pkgs[filepath.ToSlash(filepath.Dir(path))] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pkg := range pkgs {
		if !listed[pkg] {
			t.Errorf("README's Layout table does not name %s", pkg)
		}
	}
	for pkg := range listed {
		if !pkgs[pkg] {
			t.Errorf("README's Layout table names %s, which is not a package", pkg)
		}
	}
}

// docIdentFiles are the documents whose backticked Go identifiers must
// name code that exists.
var docIdentFiles = []string{"DESIGN.md", "README.md"}

// docIdentRE matches an inline code span that is a qualified identifier,
// `pkg.Name` or `Type.Member`, optionally called: `sim.Now()`.
var docIdentRE = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*)\\.([A-Za-z_][A-Za-z0-9_]*)(?:\\(\\))?`")

// testFuncRE matches the name of a test, fuzz target or benchmark.
var testFuncRE = regexp.MustCompile(`^(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*$`)

// docTestRE matches an inline code span that is a bare test, fuzz target or
// benchmark name: `TestGoldenFingerprints`.
var docTestRE = regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*)`")

// closureRE matches the name the Go toolchain gives a function literal in
// profiles: processTx.func2 is the second closure inside processTx.
var closureRE = regexp.MustCompile(`^func[0-9]+$`)

// codeIndex is what the module's sources declare, for resolving doc
// references.
type codeIndex struct {
	pkgs    map[string]map[string]bool // package name → top-level names and methods
	members map[string]map[string]bool // type name → fields and methods
	embeds  map[string][]string        // type name → embedded type names
	vars    map[string]map[string]bool // receiver, parameter or field name → its type names
	funcs   map[string]bool            // every function and method name
	std     map[string]bool            // names of imported standard packages
	strs    map[string]bool            // every string literal's value
	files   map[string]bool            // every file's base name
	tests   map[string]bool            // every Test, Fuzz and Benchmark function
}

// indexModule parses every Go file under root, bench/ included.
func indexModule(t *testing.T, root string) *codeIndex {
	t.Helper()
	idx := &codeIndex{
		pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		embeds: map[string][]string{}, vars: map[string]map[string]bool{}, funcs: map[string]bool{},
		std: map[string]bool{}, strs: map[string]bool{}, files: map[string]bool{},
		tests: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		idx.files[name] = true
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		// Names are given types by production code only: a test's
		// parameter names nothing a document describes.
		prod := !strings.HasSuffix(name, "_test.go")
		if idx.pkgs[pkg] == nil {
			idx.pkgs[pkg] = map[string]bool{}
		}
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if first, _, _ := strings.Cut(ipath, "/"); strings.Contains(first, ".") || first == "repro" {
				continue
			}
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			idx.std[name] = true
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				// A method counts as its package's name too: the docs
				// abbreviate profile frames like sim.(*Simulator).step
				// to `sim.step`.
				idx.funcs[decl.Name.Name] = true
				idx.pkgs[pkg][decl.Name.Name] = true
				if !prod && decl.Recv == nil && testFuncRE.MatchString(decl.Name.Name) {
					idx.tests[decl.Name.Name] = true
				}
				if decl.Recv != nil {
					idx.addMember(receiverType(decl.Recv.List[0].Type), decl.Name.Name)
					if prod {
						idx.addVars(decl.Recv)
					}
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						idx.pkgs[pkg][spec.Name.Name] = true
						idx.addType(spec.Name.Name, spec.Type)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							idx.pkgs[pkg][n.Name] = true
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					if s, err := strconv.Unquote(n.Value); err == nil {
						idx.strs[s] = true
					}
				}
			case *ast.FuncType:
				if prod {
					idx.addVars(n.Params)
				}
			case *ast.StructType:
				if prod {
					idx.addVars(n.Fields)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// addMember records a field or method of typ.
func (idx *codeIndex) addMember(typ, name string) {
	if idx.members[typ] == nil {
		idx.members[typ] = map[string]bool{}
	}
	idx.members[typ][name] = true
}

// addVars records the type of each name a receiver, parameter or field
// list declares.
func (idx *codeIndex) addVars(fields *ast.FieldList) {
	for _, fld := range fields.List {
		typ := receiverType(fld.Type)
		for _, nm := range fld.Names {
			if idx.vars[nm.Name] == nil {
				idx.vars[nm.Name] = map[string]bool{}
			}
			idx.vars[nm.Name][typ] = true
		}
	}
}

// addType records a named type with its fields, embedded types and
// interface methods; a type without members is still a type.
func (idx *codeIndex) addType(typ string, expr ast.Expr) {
	if idx.members[typ] == nil {
		idx.members[typ] = map[string]bool{}
	}
	var fields *ast.FieldList
	switch expr := expr.(type) {
	case *ast.StructType:
		fields = expr.Fields
	case *ast.InterfaceType:
		fields = expr.Methods
	default:
		return
	}
	for _, fld := range fields.List {
		if len(fld.Names) == 0 {
			if emb := receiverType(fld.Type); emb != "" {
				idx.addMember(typ, emb)
				idx.embeds[typ] = append(idx.embeds[typ], emb)
			}
			continue
		}
		for _, nm := range fld.Names {
			idx.addMember(typ, nm.Name)
		}
	}
}

// receiverType names the type in a receiver or embedded-field expression:
// *pkg.T[K] → T.
func receiverType(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.Sel
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// hasMember reports whether typ, or a type it embeds, has a field or
// method named name.
func (idx *codeIndex) hasMember(typ, name string, seen map[string]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	if idx.members[typ][name] {
		return true
	}
	for _, emb := range idx.embeds[typ] {
		if idx.hasMember(emb, name, seen) {
			return true
		}
	}
	return false
}

// resolves reports whether a doc's `x.y` names something: a file, a
// string the code spells (a benchmark counter such as `sim.events`), a
// module package's top-level name or method, a standard package's anything, a
// closure of a named function, or a field or method — of type x when x is
// a type, of a type the code gives x when x is a lower-case receiver,
// parameter or field name.
func (idx *codeIndex) resolves(x, y string) bool {
	switch {
	case idx.files[x+"."+y], idx.strs[x+"."+y]:
		return true
	case idx.pkgs[x] != nil && idx.pkgs[x][y]:
		return true
	case idx.std[x]:
		return true
	case closureRE.MatchString(y) && idx.funcs[x]:
		return true
	case idx.members[x] != nil:
		return idx.hasMember(x, y, map[string]bool{})
	case idx.pkgs[x] != nil || unicode.IsUpper(rune(x[0])):
		return false
	}
	for typ := range idx.vars[x] {
		if idx.hasMember(typ, y, map[string]bool{}) {
			return true
		}
	}
	return false
}

// staleIdents lists a document's qualified identifiers that resolve to
// nothing and its test names that no test file declares. Fenced code blocks
// are skipped: they hold shell sessions and sample output, not references.
func (idx *codeIndex) staleIdents(text string) []string {
	var stale []string
	inFence := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range docIdentRE.FindAllStringSubmatch(line, -1) {
			if !idx.resolves(m[1], m[2]) {
				stale = append(stale, m[0])
			}
		}
		for _, m := range docTestRE.FindAllStringSubmatch(line, -1) {
			if !idx.tests[m[1]] {
				stale = append(stale, m[0])
			}
		}
	}
	return stale
}

// Every backticked `pkg.Name` and `Type.Member` in DESIGN.md and README.md
// names code that exists, and every backticked `TestX`, `FuzzX` and
// `BenchmarkX` a function a test file declares: a rename or deletion that
// leaves a doc pointing at nothing, or citing a guard that is gone, fails
// here.
func TestDocIdentifiers(t *testing.T) {
	idx := indexModule(t, ".")
	// The checker itself: a reference to a deleted package, a missing
	// member of a real type and a missing name of a real package are
	// stale, and so is a member no type production code gives that name
	// has (`byzantine` is only a local of setchain-demo's), and so is a
	// test name no test file declares; live ones of each kind are not.
	for text, want := range map[string]int{
		"`byzantine.Combine`":                                 1,
		"`byzantine.ForgeSnapshot()`":                         1,
		"`Behavior.Combine` and `core.Combine`":               2,
		"`core.Behavior`, `Behavior.ForgeSnapshot`":           0,
		"`s.behavior`, `time.Duration`, `sim.events`":         0,
		"`withContent.func1`, `catchup.go`, `sim.Now()`":      0,
		"`TestNoSuchGuard`, `FuzzNoSuchModel`":                2,
		"`TestDocLinks`, `FuzzIDMap`, `BenchmarkRelayFanout`": 0,
		"`TestDocIdentifiers` is not `testing.T`":             0,
	} {
		if got := idx.staleIdents(text); len(got) != want {
			t.Errorf("staleIdents(%s) = %q, want %d stale", text, got, want)
		}
	}
	for _, doc := range docIdentFiles {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range idx.staleIdents(string(blob)) {
			t.Errorf("%s: %s names nothing in the module's sources", doc, ref)
		}
	}
}

// docLineFiles are the documents whose backticked `path:line` references
// must point into files that exist.
var docLineFiles = []string{"DESIGN.md", "README.md", "ROADMAP.md"}

// lineRefRE matches an inline code span that names a file and a line or a
// range of lines: `bench/README.md:322`, `bench/traced.go:98–140`.
var lineRefRE = regexp.MustCompile("`([\\w./-]+):([0-9]+)(?:[–-]([0-9]+))?`")

// treeFiles maps every file under root (hidden directories other than
// .github skipped) to its line count, by its slash-separated path relative
// to root, and counts the files that share each base name.
func treeFiles(t *testing.T, root string) (lines map[string]int, bases map[string]int) {
	t.Helper()
	lines, bases = map[string]int{}, map[string]int{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") && d.Name() != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		n := strings.Count(string(blob), "\n")
		if len(blob) > 0 && blob[len(blob)-1] != '\n' {
			n++
		}
		lines[filepath.ToSlash(rel)] = n
		bases[d.Name()]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lines, bases
}

// badLineRefs lists a document's line references that name no file, name
// by its base name a file whose base name others share, or point past the
// end of their file. Fenced code blocks are skipped.
func badLineRefs(text string, lines, bases map[string]int) []string {
	byBase := map[string]string{}
	for path := range lines {
		if base := filepath.Base(path); bases[base] == 1 {
			byBase[base] = path
		}
	}
	var bad []string
	inFence := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range lineRefRE.FindAllStringSubmatch(line, -1) {
			path, last := m[1], m[2]
			if m[3] != "" {
				last = m[3]
			}
			if _, ok := lines[path]; !ok && !strings.Contains(path, "/") {
				path = byBase[path]
			}
			n, ok := lines[path]
			switch end, _ := strconv.Atoi(last); {
			case !ok:
				bad = append(bad, m[0]+" names no file, or a base name several files share")
			case end > n:
				bad = append(bad, fmt.Sprintf("%s points past the end of %s (%d lines)", m[0], path, n))
			}
		}
	}
	return bad
}

// Every backticked `path:line` and `path:line–line` in DESIGN.md, README.md
// and ROADMAP.md names a file of the tree, by its path or by a base name
// no other file has, and a line the file has: an edit that shortens or
// moves a file leaves no reference pointing past it.
func TestDocLineRefs(t *testing.T) {
	lines, bases := treeFiles(t, ".")
	// The checker itself: a missing file, a shared base name, a line and a
	// range past the end are bad; a path, a unique base name and a range
	// inside the file are not.
	for text, want := range map[string]int{
		"`no/such.go:1`":                                   1,
		"`main.go:1`":                                      1,
		"`docs_test.go:100000`":                            1,
		"`docs_test.go:1–100000`":                          1,
		"`bench/go.mod:1`, `docs_test.go:1–2`":             0,
		"`internal/harness/fingerprint.go:1`":              0,
		"`fingerprint.go:1`, `.github/workflows/ci.yml:1`": 0,
	} {
		if got := badLineRefs(text, lines, bases); len(got) != want {
			t.Errorf("badLineRefs(%s) = %q, want %d bad", text, got, want)
		}
	}
	for _, doc := range docLineFiles {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range badLineRefs(string(blob), lines, bases) {
			t.Errorf("%s: %s", doc, msg)
		}
	}
}

// designHeadingRE matches one of DESIGN.md's numbered section headings.
var designHeadingRE = regexp.MustCompile(`(?m)^## §([0-9]+) `)

// designRefRE matches "DESIGN.md" and the list of sections that follows it,
// each with an optional subject in parentheses: "DESIGN.md §2 (layering),
// §6 (the RunMany pool) and §10". A markdown link to the file counts too.
var designRefRE = regexp.MustCompile(`DESIGN\.md(?:\]\(DESIGN\.md\))?((?:(?:\s*,\s*|\s+and\s+|\s+)§[0-9]+(?:\s*\([^()]*\))?)+)`)

// sectionRE matches one section number.
var sectionRE = regexp.MustCompile(`§([0-9]+)`)

// badSectionRefs lists the section numbers text cites that name no heading
// of sections. With bare, every §N counts (DESIGN.md's own cross-references);
// otherwise only those a "DESIGN.md" introduces, so a paper section ("paper
// §3") is not taken for one of ours.
func badSectionRefs(text string, sections map[string]bool, bare bool) []string {
	var cited []string
	if bare {
		cited = []string{text}
	} else {
		for _, m := range designRefRE.FindAllStringSubmatch(text, -1) {
			cited = append(cited, m[1])
		}
	}
	var bad []string
	for _, c := range cited {
		for _, m := range sectionRE.FindAllStringSubmatch(c, -1) {
			if !sections[m[1]] {
				bad = append(bad, m[0])
			}
		}
	}
	return bad
}

// goComments returns the text of every comment in the Go files under root,
// bench/ and testdata skipped, keyed by path.
func goComments(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join(root, "bench")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		var b strings.Builder
		for _, cg := range f.Comments {
			b.WriteString(cg.Text())
			b.WriteString("\n")
		}
		out[path] = b.String()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Every "DESIGN.md §N" in a Go comment outside bench/, in README.md and in
// ROADMAP.md, and every §N inside DESIGN.md, names a section DESIGN.md has:
// a renumbered or deleted section leaves no reference pointing at nothing.
// CHANGES.md is history and is not checked.
func TestDocSectionRefs(t *testing.T) {
	blob, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(blob)
	sections := map[string]bool{}
	for _, m := range designHeadingRE.FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered section")
	}
	// The checker itself: a section past the last, in a list or alone, is
	// bad; a list of real ones over a line break, a link to the file and a
	// paper section are not; bare mode counts every §N.
	for _, c := range []struct {
		text string
		bare bool
		want int
	}{
		{"See DESIGN.md §2 (layering), §6 (the\nRunMany pool) and §99.", false, 1},
		{"DESIGN.md §98 has it", false, 1},
		{"[DESIGN.md](DESIGN.md) §9 and §10; paper §97", false, 0},
		{"DESIGN.md §1's table", false, 0},
		{"as §3 says, and §96", true, 1},
	} {
		if got := badSectionRefs(c.text, sections, c.bare); len(got) != c.want {
			t.Errorf("badSectionRefs(%q, bare=%v) = %q, want %d bad", c.text, c.bare, got, c.want)
		}
	}
	for _, ref := range badSectionRefs(design, sections, true) {
		t.Errorf("DESIGN.md: %s names no section", ref)
	}
	for _, doc := range []string{"README.md", "ROADMAP.md"} {
		blob, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range badSectionRefs(string(blob), sections, false) {
			t.Errorf("%s: DESIGN.md %s names no section", doc, ref)
		}
	}
	for path, text := range goComments(t, ".") {
		for _, ref := range badSectionRefs(text, sections, false) {
			t.Errorf("%s: a comment cites DESIGN.md %s, which names no section", path, ref)
		}
	}
}

// designSection returns section §n of DESIGN.md with its whitespace
// collapsed to single spaces, or "" if there is no such section.
func designSection(doc string, n int) string {
	head := fmt.Sprintf("## §%d ", n)
	i := strings.Index(doc, head)
	if i < 0 {
		return ""
	}
	sec := doc[i+len(head):]
	if j := strings.Index(sec, "\n## §"); j >= 0 {
		sec = sec[:j]
	}
	return strings.Join(strings.Fields(sec), " ")
}

// statedNumber is a number DESIGN.md states beside the code name that holds
// it, written "`name` (value …)" in section sec.
type statedNumber struct {
	sec   int
	name  string
	value string
}

// unstated lists the numbers doc does not state as want says.
func unstated(doc string, want []statedNumber) []string {
	var bad []string
	for _, w := range want {
		if !strings.Contains(designSection(doc, w.sec), "`"+w.name+"` ("+w.value) {
			bad = append(bad, fmt.Sprintf("§%d does not state `%s` (%s", w.sec, w.name, w.value))
		}
	}
	return bad
}

// fmtDuration writes a duration the way DESIGN.md does: "1.24 s", "500 ms",
// "34 µs", "3 ns".
func fmtDuration(d time.Duration) string {
	unit, div := "ns", 1.0
	switch {
	case d >= time.Second:
		unit, div = "s", float64(time.Second)
	case d >= time.Millisecond:
		unit, div = "ms", float64(time.Millisecond)
	case d >= time.Microsecond:
		unit, div = "µs", float64(time.Microsecond)
	}
	return strconv.FormatFloat(float64(d)/div, 'f', -1, 64) + " " + unit
}

// TestDocNumbersMatchCode is DESIGN.md's known-answer check: every modeled
// constant §1 states (wire sizes, hash and signature lengths, the compression
// ratios, the cost model's charges) and every fixed timing §3, §4 and §7
// state is read back from code, and the section must state it beside the
// name that holds it. A constant that changes, or a section that stops
// stating it, fails here. §13's numbers have their own check,
// TestMeshNumbersMatchDesign.
func TestDocNumbersMatchCode(t *testing.T) {
	bytes := func(n uintptr) string { return fmt.Sprintf("%d bytes", n) }
	costs := core.PaperCostModel()
	want := []statedNumber{
		{1, "wire.Element", bytes(unsafe.Sizeof(wire.Element{}))},
		{1, "wire.ElementHeaderSize", bytes(wire.ElementHeaderSize)},
		{1, "wire.EpochProofWireSize", bytes(wire.EpochProofWireSize)},
		{1, "wire.HashBatchWireSize", bytes(wire.HashBatchWireSize)},
		{1, "setcrypto.HashSize", bytes(setcrypto.HashSize)},
		{1, "setcrypto.SignatureSize", bytes(setcrypto.SignatureSize)},
		{1, "setcrypto.PublicKeySize", bytes(setcrypto.PublicKeySize)},
		{1, "compressor.Ratio", fmt.Sprintf("%g at 100 items, %g at 500", compressor.Ratio(100), compressor.Ratio(500))},
		{1, "CostModel.VerifyElement", fmtDuration(costs.VerifyElement)},
		{1, "CostModel.PerElement", fmtDuration(costs.PerElement)},
		{1, "CostModel.SignCost", fmtDuration(costs.SignCost)},
		{1, "CostModel.VerifySig", fmtDuration(costs.VerifySig)},
		{1, "CostModel.HashPerByte", fmtDuration(costs.HashPerByte)},
		{1, "CostModel.CompressPerByte", fmtDuration(costs.CompressPerByte)},
		{1, "CostModel.DecompressPerByte", fmtDuration(costs.DecompressPerByte)},
		{1, "CostModel.PerBatch", fmtDuration(costs.PerBatch)},
		{3, "core.RequestTimeout", fmtDuration(core.RequestTimeout)},
		{3, "core.RetryBackoff", fmtDuration(core.RetryBackoff)},
		{4, "consensus.TimeoutCommit", fmtDuration(consensus.TimeoutCommit)},
		{4, "consensus.TimeoutPropose", fmtDuration(consensus.TimeoutPropose)},
		{4, "consensus.TimeoutPrevote", fmtDuration(consensus.TimeoutPrevote)},
		{4, "consensus.TimeoutPrecommit", fmtDuration(consensus.TimeoutPrecommit)},
		{4, "consensus.TimeoutDelta", fmtDuration(consensus.TimeoutDelta)},
		{4, "mempool.GossipInterval", fmtDuration(mempool.GossipInterval)},
		{7, "collector.Timeout", fmtDuration(collector.Timeout)},
	}
	// The checker itself: a wrong value, a value stated in another section
	// and a section that does not exist are unstated; a value over a line
	// break is stated.
	fixture := "## §1 A\n`x.A` (2\ns), `x.B` (5 s)\n## §2 B\n`x.C` (7 ms)\n"
	for _, c := range []struct {
		want statedNumber
		bad  int
	}{
		{statedNumber{1, "x.A", "2 s"}, 0},
		{statedNumber{1, "x.B", "6 s"}, 1},
		{statedNumber{1, "x.C", "7 ms"}, 1},
		{statedNumber{3, "x.A", "2 s"}, 1},
	} {
		if got := unstated(fixture, []statedNumber{c.want}); len(got) != c.bad {
			t.Errorf("unstated(%+v) = %q, want %d", c.want, got, c.bad)
		}
	}
	if got := fmtDuration(1240 * time.Millisecond); got != "1.24 s" {
		t.Errorf("fmtDuration(1.24 s) = %q", got)
	}
	blob, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range unstated(string(blob), want) {
		t.Error("DESIGN.md " + msg)
	}
}
