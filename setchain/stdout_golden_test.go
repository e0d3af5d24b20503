package setchain_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout/*.txt from this build")

// wallField is the one part of any of their outputs that carries wall-clock
// time (setchain-demo's "(wall 68ms)").
var wallField = regexp.MustCompile(`\(wall [^)]*\)`)

// TestGoldenStdout pins what every program built on this package prints,
// byte for byte: the stdout of each must equal testdata/stdout/<name>.txt
// (setchain-demo's wall-clock field blanked). The files were written
// against the last setchain.New that built its own simulator and
// deployment; a refactor of the public API's plumbing that moves one
// committed element, epoch or virtual timestamp fails here. Regenerate
// with `go test ./setchain -run TestGoldenStdout -update` only for a change
// that is meant to alter what the programs print.
func TestGoldenStdout(t *testing.T) {
	// The public API's own consumers, run with no arguments: every command
	// under examples/, and the demo.
	pkgs := []string{"repro/examples/...", "repro/cmd/setchain-demo"}
	mains, err := exec.Command("go", append([]string{"list", "-f",
		`{{if eq .Name "main"}}{{.ImportPath}}{{end}}`}, pkgs...)...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var programs []string
	for _, path := range strings.Fields(string(mains)) {
		programs = append(programs, path[strings.LastIndex(path, "/")+1:])
	}
	// The child go command's reads are invisible to the test cache: stat
	// every source file the programs compile from, so that editing any of
	// them invalidates a cached pass.
	list, err := exec.Command("go", append([]string{"list", "-deps", "-f",
		`{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}`}, pkgs...)...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, src := range strings.Fields(string(list)) {
		if _, err := os.Stat(src); err != nil {
			t.Fatal(err)
		}
	}
	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range programs {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\nstderr: %s", name, err, stderr.String())
			}
			got := wallField.ReplaceAllString(stdout.String(), "(wall)")
			path := filepath.Join("testdata", "stdout", name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("stdout differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}
