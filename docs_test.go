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
	"os"
	"path/filepath"
	"regexp"
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
