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

// Every element verifies whatever the server count. The demo used to
// confirm against server 1 and size its loops by the -servers flag: -servers
// 1 committed everything, verified 0/3 and exited 1, and -servers 0 (the
// default deployment of 4) divided by zero.
func TestServerCountsVerify(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-servers 1 -elements 3", "client verification with f+1=1 epoch-proofs: 3/3 elements\n"},
		{"-servers 0 -elements 3", "client verification with f+1=2 epoch-proofs: 3/3 elements\n"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), demoArgsEnv+"="+tc.args)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatal(err)
			}
			t.Errorf("%s: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", tc.args, ee.ExitCode(), out.String(), errb.String())
			continue
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: stdout lacks %q:\n%s", tc.args, tc.want, out.String())
		}
	}
}
