// Command benchpairs compares one benchmark workload between the working
// tree and another git revision in alternating pairs of runs, so that host
// drift over the session lands on both sides alike (the paired reporting of
// arXiv 2408.13485). It unpacks the base revision with git archive under
// .bench_build/pairs/<rev>/, then runs
//
//	bash bench/run.sh -workload W -trace 0 -seed SEED
//
// n times in each tree, each pair starting on the other side. For every
// end-to-end metric it prints both sides' medians and quartiles, the change
// of the medians, the pairs the working tree won, and whether the medians
// lie further apart than the base's interquartile range. It also checks
// that every run of both trees reports the same digest.
//
//	go run ./cmd/benchpairs -workload mesh50 -base HEAD -n 10 -seed 1
//
// or make pairs W=mesh50 BASE=HEAD N=10 SEED=1. It exits 2 on a missing
// workload or bad flags, 1 when a run fails or the digests differ.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "the workload to run (required)")
	base := flag.String("base", "HEAD", "the git revision to compare the working tree with")
	n := flag.Int("n", 10, "pairs of runs")
	seed := flag.Int("seed", 1, "the workload's seed")
	flag.Parse()
	if *workload == "" || *n < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchpairs -workload W [-base REV] [-n 10] [-seed 1]")
		os.Exit(2)
	}
	if err := run(os.Stdout, *workload, *base, *n, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "benchpairs: %v\n", err)
		os.Exit(1)
	}
}

// result is what one run of bench/run.sh reports.
type result struct {
	digest  string
	metrics map[string]float64
}

func run(w io.Writer, workload, base string, n, seed int) error {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	rev, err := git(root, "rev-parse", "--short", base+"^{commit}")
	if err != nil {
		return err
	}
	baseTree := filepath.Join(root, ".bench_build", "pairs", rev)
	if err := unpack(root, rev, baseTree); err != nil {
		return err
	}
	better := directions(filepath.Join(root, "BENCHMARK.json"))

	trees := [2]string{baseTree, root}
	var runs [2][]result
	fmt.Fprintf(w, "%s, seed %d: base %s against the working tree, %d alternating pairs\n", workload, seed, rev, n)
	for i := 0; i < n; i++ {
		for _, side := range [2]int{i % 2, 1 - i%2} {
			r, err := runOnce(trees[side], workload, seed)
			if err != nil {
				return err
			}
			runs[side] = append(runs[side], r)
		}
		fmt.Fprintf(w, "  pair %d/%d: wall_s %.4f (base) %.4f (tree)\n", i+1, n,
			runs[0][i].metrics["wall_s"], runs[1][i].metrics["wall_s"])
	}
	return report(w, runs, better)
}

// report prints one row per metric and fails when the digests differ.
func report(w io.Writer, runs [2][]result, better map[string]string) error {
	var names []string
	for name := range runs[0][0].metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "%-20s %-8s %12s %12s %12s %12s %12s %12s %8s %5s %s\n", "metric", "better",
		"base q1", "base median", "base q3", "tree q1", "tree median", "tree q3", "change", "won", "apart")
	for _, name := range names {
		var a, b []float64
		for i := range runs[0] {
			a = append(a, runs[0][i].metrics[name])
			b = append(b, runs[1][i].metrics[name])
		}
		dir := better[name]
		if dir == "" {
			dir = "lower"
		}
		s := compare(a, b, dir == "higher")
		fmt.Fprintf(w, "%-20s %-8s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+7.1f%% %2d/%-2d %v\n", name, dir,
			s.base[0], s.base[1], s.base[2], s.tree[0], s.tree[1], s.tree[2], s.change*100, s.won, len(a), s.apart)
	}
	digests := map[string]bool{}
	for _, side := range runs {
		for _, r := range side {
			digests[r.digest] = true
		}
	}
	if len(digests) != 1 {
		return fmt.Errorf("the runs report %d different digests", len(digests))
	}
	fmt.Fprintf(w, "every run's digest: %s\n", runs[0][0].digest)
	return nil
}

// summary compares the base's and the tree's samples of one metric, taken
// in pairs: base[i] and tree[i] ran back to back.
type summary struct {
	base, tree [3]float64 // first quartile, median, third quartile
	change     float64    // the tree's median over the base's, minus one
	won        int        // pairs in which the tree did better
	apart      bool       // the medians differ by more than the base's IQR
}

func compare(base, tree []float64, higherIsBetter bool) summary {
	s := summary{base: quartiles(base), tree: quartiles(tree)}
	if s.base[1] != 0 {
		s.change = s.tree[1]/s.base[1] - 1
	}
	for i := range base {
		if higherIsBetter && tree[i] > base[i] || !higherIsBetter && tree[i] < base[i] {
			s.won++
		}
	}
	d := s.tree[1] - s.base[1]
	s.apart = max(d, -d) > s.base[2]-s.base[0]
	return s
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, interpolated linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

var digestLine = regexp.MustCompile(`(?m)^== \S+\s+digest ([0-9a-f]+)`)

// runOnce runs the workload once in tree and parses its report: the digest
// line and the closing JSON line of end-to-end metrics.
func runOnce(tree, workload string, seed int) (result, error) {
	cmd := exec.Command("bash", "bench/run.sh", "-workload", workload, "-trace", "0", "-seed", fmt.Sprint(seed))
	cmd.Dir = tree
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("%s: bench/run.sh: %v\n%s", tree, err, errOut.Bytes())
	}
	return parse(out.String())
}

func parse(out string) (result, error) {
	m := digestLine.FindStringSubmatch(out)
	if m == nil {
		return result{}, errors.New("no digest line in the benchmark's output")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rep struct {
		Failed  uint64 `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return result{}, fmt.Errorf("the benchmark's last line is not its JSON report: %v", err)
	}
	if rep.Failed > 0 || len(rep.Metrics) == 0 {
		return result{}, fmt.Errorf("the run failed %d operations and reported %d metrics", rep.Failed, len(rep.Metrics))
	}
	r := result{digest: m[1], metrics: map[string]float64{}}
	for name, v := range rep.Metrics {
		r.metrics[name] = v.Value
	}
	return r, nil
}

// directions reads each end-to-end metric's better direction from
// BENCHMARK.json; a metric it does not name counts as lower-is-better.
func directions(path string) map[string]string {
	var spec struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	out := map[string]string{}
	if blob, err := os.ReadFile(path); err == nil && json.Unmarshal(blob, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Better
		}
	}
	return out
}

// unpack extracts rev's files into dir, once: a complete earlier unpacking
// is reused, and its build cache with it.
func unpack(root, rev, dir string) error {
	done := filepath.Join(dir, ".unpacked")
	if _, err := os.Stat(done); err == nil {
		return nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tarball := dir + ".tar"
	defer os.Remove(tarball)
	if _, err := git(root, "archive", "-o", tarball, rev); err != nil {
		return err
	}
	if out, err := exec.Command("tar", "-x", "-f", tarball, "-C", dir).CombinedOutput(); err != nil {
		return fmt.Errorf("unpacking %s: %v\n%s", rev, err, out)
	}
	return os.WriteFile(done, nil, 0o644)
}

// git runs git in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
