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
	"unicode"
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

// closureRE matches the name the Go toolchain gives a function literal in
// profiles: processTx.func2 is the second closure inside processTx.
var closureRE = regexp.MustCompile(`^func[0-9]+$`)

// codeIndex is what the module's sources declare, for resolving doc
// references.
type codeIndex struct {
	pkgs    map[string]map[string]bool // package name → top-level names and methods
	members map[string]map[string]bool // type name → fields and methods
	embeds  map[string][]string        // type name → embedded type names
	any     map[string]bool            // every field and method name
	funcs   map[string]bool            // every function and method name
	std     map[string]bool            // names of imported standard packages
	strs    map[string]bool            // every string literal's value
	files   map[string]bool            // every file's base name
}

// indexModule parses every Go file under root, bench/ included.
func indexModule(t *testing.T, root string) *codeIndex {
	t.Helper()
	idx := &codeIndex{
		pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		embeds: map[string][]string{}, any: map[string]bool{}, funcs: map[string]bool{},
		std: map[string]bool{}, strs: map[string]bool{}, files: map[string]bool{},
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
				if decl.Recv != nil {
					idx.addMember(receiverType(decl.Recv.List[0].Type), decl.Name.Name)
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
			case *ast.StructType: // anonymous structs' fields count too
				for _, fld := range n.Fields.List {
					for _, nm := range fld.Names {
						idx.any[nm.Name] = true
					}
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
	idx.any[name] = true
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
// a type, of some type when x is a lower-case variable.
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
	return idx.any[y]
}

// staleIdents lists a document's qualified identifiers that resolve to
// nothing. Fenced code blocks are skipped: they hold shell sessions and
// sample output, not references.
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
	}
	return stale
}

// Every backticked `pkg.Name` and `Type.Member` in DESIGN.md and README.md
// names code that exists: a rename or deletion that leaves a doc pointing
// at nothing fails here.
func TestDocIdentifiers(t *testing.T) {
	idx := indexModule(t, ".")
	// The checker itself: a reference to a deleted package, a missing
	// member of a real type and a missing name of a real package are
	// stale; live ones of each kind are not.
	for text, want := range map[string]int{
		"`byzantine.Combine`":                            1,
		"`Behavior.Combine` and `core.Combine`":          2,
		"`core.Behavior`, `Behavior.ForgeSnapshot`":      0,
		"`s.behavior`, `time.Duration`, `sim.events`":    0,
		"`withContent.func1`, `catchup.go`, `sim.Now()`": 0,
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
