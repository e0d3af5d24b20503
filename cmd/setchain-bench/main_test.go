package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
