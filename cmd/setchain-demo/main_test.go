package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// demoArgsEnv marks a re-executed test binary as a setchain-demo process:
// the test below runs main() with these arguments in a child, the
// helper-process idiom of os/exec's own tests.
const demoArgsEnv = "SETCHAIN_DEMO_TEST_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(demoArgsEnv); args != "" {
		os.Args = append([]string{"setchain-demo"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// demo runs setchain-demo with args in a child process and returns what it
// printed and its exit code.
func demo(t *testing.T, args string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), demoArgsEnv+"="+args)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// Every element verifies whatever the server count. The demo used to
// confirm against server 1 and size its loops by the -servers flag: -servers
// 1 committed everything, verified 0/3 and exited 1, and -servers 0 (the
// default deployment of 4) divided by zero.
func TestServerCountsVerify(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-servers 1 -elements 3", "client verification with f+1=1 epoch-proofs: 3/3 elements\n"},
		{"-servers 0 -elements 3", "client verification with f+1=2 epoch-proofs: 3/3 elements\n"},
	} {
		out, errs, code := demo(t, tc.args)
		if code != 0 {
			t.Errorf("%s: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", tc.args, code, out, errs)
			continue
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s: stdout lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// A negative count or delay, and more Byzantine servers than the
// deployment's f, are refused before anything deploys, as an unknown -alg
// is: -byzantine -1 used to print the header and die adding to a server
// that does not exist, -elements -5 added nothing, and -servers -1,
// -collector -3, -delay -1s and -byzantine 2 on 4 servers died with exit 1.
// The header prints what the deployment runs: -collector 0 and -seed 0 run
// the defaults, c = 100 and seed 1.
func TestFlagsAsRun(t *testing.T) {
	for _, tc := range []struct {
		args, want string
		code       int
	}{
		{"-byzantine -1", "-byzantine -1, -elements 20: neither may be negative\n", 2},
		{"-elements -5", "-byzantine 0, -elements -5: neither may be negative\n", 2},
		{"-alg foo", "unknown algorithm \"foo\"\n", 2},
		{"-servers -1", "-servers -1, -collector 10, -delay 0s: none may be negative\n", 2},
		{"-collector -3", "-servers 4, -collector -3, -delay 0s: none may be negative\n", 2},
		{"-delay -1s", "-servers 4, -collector 10, -delay -1s: none may be negative\n", 2},
		{"-byzantine 2", "-byzantine 2 exceeds the tolerated f=1\n", 2},
		{"-servers 0 -byzantine 2", "-byzantine 2 exceeds the tolerated f=1\n", 2},
		{"-servers 5 -byzantine 3", "-byzantine 3 exceeds the tolerated f=2\n", 2},
		{"-collector 0 -elements 2", "Hashchain on 4 servers (f=1), collector=100, delay=0s, seed=1\n", 0},
		{"-seed 0 -elements 2", "Hashchain on 4 servers (f=1), collector=10, delay=0s, seed=1\n", 0},
	} {
		out, errs, code := demo(t, tc.args)
		got := out
		if tc.code != 0 {
			got = errs
			if out != "" {
				t.Errorf("%s: printed before refusing:\n%s", tc.args, out)
			}
		}
		if code != tc.code || !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: exit %d, want %d; output does not start with %q:\nstdout:\n%s\nstderr:\n%s",
				tc.args, code, tc.code, tc.want, out, errs)
		}
	}
}
