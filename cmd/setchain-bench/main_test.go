package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
)

// benchArgsEnv marks a re-executed test binary as a setchain-bench process:
// the exit-code tests below run main() with these arguments in a child, the
// helper-process idiom of os/exec's own tests.
const benchArgsEnv = "SETCHAIN_BENCH_TEST_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(benchArgsEnv); args != "" {
		os.Args = append([]string{"setchain-bench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs setchain-bench with the given arguments in a child process
// and returns its stdout, stderr and exit code.
func runBench(t *testing.T, args string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), benchArgsEnv+"="+args)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("setchain-bench %s: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return out.String(), errb.String(), exit
}

// resultRow returns the results-table line of the named scenario.
func resultRow(stdout, scenario string) string {
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, scenario) {
			return line
		}
	}
	return ""
}

// A -scale the spec layer would reject in a file must be a usage error on
// the command line too: exit 2 with a message and nothing run — not a
// "-750 el/s" or "NaN el/s" cell that injects nothing and prints Safety ok.
// -scale 0 keeps meaning 1.
func TestScaleFlagIsValidated(t *testing.T) {
	one, _, _ := runBench(t, "-exp chaos_crash -scale 1")
	want := resultRow(one, "crash-restart")
	for _, tc := range []struct {
		scale string
		exit  int
	}{
		{"-1", 2},
		{"NaN", 2},
		{"+Inf", 2},
		{"0", 0},
	} {
		stdout, stderr, exit := runBench(t, "-exp chaos_crash -scale "+tc.scale)
		if exit != tc.exit {
			t.Errorf("-scale %s: exit %d, want %d (stderr %q)", tc.scale, exit, tc.exit, stderr)
			continue
		}
		if tc.exit == 0 {
			if row := resultRow(stdout, "crash-restart"); row == "" || row != want {
				t.Errorf("-scale %s does not mean 1:\n%q\n%q", tc.scale, row, want)
			}
			continue
		}
		if !strings.Contains(stderr, "scale must be finite and >= 0") {
			t.Errorf("-scale %s: stderr %q does not name the rule", tc.scale, stderr)
		}
		if stdout != "" {
			t.Errorf("-scale %s ran something:\n%s", tc.scale, stdout)
		}
	}
}

// A cell over its heap ceiling fails the run, and the end-of-run line names
// it as experiment/label: a figure renderer prints no per-cell verdict, so
// the line is the one place a failing cell is named for every entry. At
// scale 1 the cell's live heap is several times the 1 MiB ceiling.
func TestHeapCeilingFailureNamesTheCell(t *testing.T) {
	_, stderr, exit := runBench(t, "-exp chaos_crash -scale 1 -matrix heap=1")
	if exit != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", exit, stderr)
	}
	want := "MEMORY: 1 scenario(s) exceeded their declared heap ceiling: chaos_crash/crash-restart\n"
	if !strings.HasSuffix(stderr, want) {
		t.Fatalf("stderr does not end with %q:\n%s", want, stderr)
	}
}

// The renderer map must stay aligned with the registry: a renderer keyed by
// a name the registry does not know is unreachable, an analytic entry (no
// cells) without one would print an empty results table, and an analytic
// entry has nothing for -matrix to expand.
func TestRunnersAlignWithRegistry(t *testing.T) {
	for name := range renderers {
		if _, ok := spec.Get(name); !ok {
			t.Errorf("renderer %q has no registry entry", name)
		}
	}
	for _, e := range spec.All() {
		if len(e.Cells) > 0 {
			continue
		}
		if _, ok := renderers[e.Name]; !ok {
			t.Errorf("analytic entry %q has neither cells nor a renderer", e.Name)
		}
		stdout, stderr, exit := runBench(t, "-exp "+e.Name+" -matrix servers=4,7")
		if exit != 2 || !strings.Contains(stderr, "is analytic") {
			t.Errorf("-exp %s -matrix: exit %d, stderr %q; want 2 and the analytic-entry message", e.Name, exit, stderr)
		}
		if strings.Contains(strings.TrimSpace(stdout), "\n") {
			t.Errorf("-exp %s -matrix printed more than the header line:\n%s", e.Name, stdout)
		}
	}
}

func TestWrap(t *testing.T) {
	lines := wrap("one two three four", 9)
	want := []string{"one two", "three", "four"}
	if len(lines) != len(want) {
		t.Fatalf("wrap = %v, want %v", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("wrap = %v, want %v", lines, want)
		}
	}
	if got := wrap("", 10); len(got) != 0 {
		t.Fatalf("wrap(empty) = %v", got)
	}
}

// safetyCells returns the Safety column of every results-table row.
func safetyCells(stdout string) []string {
	var cells []string
	col := -1
	for _, line := range strings.Split(stdout, "\n") {
		r := []rune(line)
		switch {
		case strings.HasPrefix(line, "Scenario ") && strings.Contains(line, " Safety "):
			col = len([]rune(line[:strings.Index(line, " Safety ")])) + 1
		case col < 0 || strings.HasPrefix(line, "---"):
		case strings.TrimSpace(line) == "" || len(r) <= col:
			col = -1
		default:
			cells = append(cells, strings.Fields(string(r[col:]))[0])
		}
	}
	return cells
}

// Every shipped example document runs: a scenario document with -spec, the
// standalone fault plan layered onto fig4 with -faults.
func TestExampleSpecsRun(t *testing.T) {
	paths, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	for _, path := range paths {
		args := "-spec " + path + " -scale 0.01"
		if filepath.Base(path) == "partition.json" {
			args = "-exp fig4 -faults " + path + " -scale 0.01"
		}
		stdout, stderr, exit := runBench(t, args)
		if exit != 0 {
			t.Errorf("%s: exit %d (stderr %q)", args, exit, stderr)
			continue
		}
		cells := safetyCells(stdout)
		if len(cells) == 0 {
			t.Errorf("%s: no results rows:\n%s", args, stdout)
		}
		for _, c := range cells {
			if c != "ok" {
				t.Errorf("%s: Safety %q:\n%s", args, c, stdout)
			}
		}
	}
}

// A spec or fault-plan file is one JSON value: a second value after the
// first fails the run and names the file instead of being dropped.
func TestDocumentWithTwoValuesFails(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ flag, doc string }{
		{"-spec", `{"algorithm":"vanilla","rate":100}` + "\n" + `{"algorithm":"hashchain","rate":100}`},
		{"-spec", `{"algorithm":"vanilla","rate":100} trailing garbage`},
		{"-exp fig4 -faults", `{"events":[{"at":"10s","action":"crash","nodes":[3]}]}` + "\n" +
			`{"events":[{"at":"20s","action":"restart","nodes":[3]}]}`},
	} {
		path := filepath.Join(dir, "two.json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		_, stderr, exit := runBench(t, tc.flag+" "+path+" -scale 0.01")
		if exit != 1 || !strings.Contains(stderr, path) {
			t.Errorf("%s %q: exit %d, stderr %q; want 1 naming the file", tc.flag, tc.doc, exit, stderr)
		}
	}
}
