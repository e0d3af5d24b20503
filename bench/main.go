// Command bench is the repository's performance benchmark: five named
// workloads run through harness.Run, seven end-to-end metrics each, and a
// traced pass that attributes the time to layers. See README.md.
//
//	bash bench/run.sh                      # the whole suite, both passes
//	bash bench/run.sh -aa                  # two untraced suites back to back, compared
//	bash bench/run.sh -workload hash10k -cpuprofile cpu.prof
//
// The driver's form (one workload, one pass, a JSON result as the last line):
//
//	bash bench/run.sh --workload mesh50 --seed 7 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// bothPasses is -trace's default: the untraced pass and the traced one.
const bothPasses = -1

type config struct {
	workloads  []workloadDef
	seed       int64
	scale      float64
	repeats    int
	seconds    float64 // > 0: time timed repeats for this long per workload instead of counting them
	trace      int     // 0 untraced pass only, 1 traced pass only, bothPasses
	traceOut   string
	cpuProfile string
	memProfile string
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var name, jsonOut string
	var aa bool
	flag.StringVar(&name, "workload", "", "run only this workload (default: all five, round-robin)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed, fed to Scenario.Seed")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "measure each workload's timed repeats for this many seconds (0: use -repeats)")
	flag.IntVar(&cfg.repeats, "repeats", 5, "timed repeats per workload when -seconds is 0")
	flag.IntVar(&cfg.trace, "trace", bothPasses, "0: end-to-end metrics only; 1: per-layer metrics only (default: both)")
	flag.Float64Var(&cfg.scale, "scale", 1, "shrink rates and send windows (smoke tests only; figures are comparable at 1)")
	flag.BoolVar(&aa, "aa", false, "run the untraced suite twice and compare the two against the bounds")
	flag.StringVar(&cfg.traceOut, "trace-out", filepath.Join(".bench_build", "trace"), "directory for the Chrome trace-event JSON files")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the timed repeats to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write an allocation profile of the timed repeats to this file")
	flag.StringVar(&jsonOut, "json", "", "also write the whole report as JSON to this file")
	flag.Parse()

	cfg.workloads = workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", name)
			return 2
		}
		cfg.workloads = []workloadDef{w}
	}
	if flag.NArg() > 0 || cfg.trace < bothPasses || cfg.trace > 1 || cfg.repeats < 1 || cfg.scale <= 0 {
		flag.Usage()
		return 2
	}

	if aa {
		return runAA(cfg)
	}
	rep, err := runSuite(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	rep.print(os.Stdout)
	if jsonOut != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: -json: %v\n", err)
			return 1
		}
	}
	if name != "" && cfg.trace != bothPasses {
		fmt.Println(rep.resultLine(cfg.trace == 1))
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// runSuite runs the selected workloads: set-up and timed repeats (round-robin
// across workloads, so slow host drift lands on every workload alike), then,
// unless cfg.trace is 0, the traced pass, the layer cells and the two
// differential figures.
func runSuite(cfg config) (*report, error) {
	rep := &report{Conditions: currentConditions(cfg.seed, cfg.scale)}
	h := &host{}
	ms, err := untracedPass(cfg, h)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		wr := workloadReport{
			Workload:  m.w.Name,
			Digest:    fmt.Sprintf("%x", m.warm.digest),
			Attempted: m.warm.offered,
			Failed:    m.warm.offered - m.warm.committed,
			WallRawS:  m.medianWall().Seconds(),
			HorizonS:  m.sc.Horizon.Seconds(),
		}
		e2e := m.endToEnd()
		if cfg.trace != 1 {
			wr.EndToEnd = map[string]summary{}
			for name, xs := range e2e {
				wr.EndToEnd[name] = summarize(xs)
			}
		}
		if cfg.trace != 0 {
			wr.PerLayer = m.runtimeMetrics()
			var t *tracedRun
			var err error
			kernel := h.around(func() {
				debug.FreeOSMemory() // start where an untraced repeat starts
				t, err = tracePass(m.w, cfg.seed, cfg.scale)
			})
			if err != nil {
				return nil, err
			}
			if err := t.drift(m.warm); err != nil {
				rep.Faults = append(rep.Faults, fmt.Sprintf("%s: %v", m.w.Name, err))
			}
			for _, part := range []map[string]float64{t.counts, t.timings()} {
				for k, v := range part {
					wr.PerLayer[k] = v
				}
			}
			// Both sides host-calibrated: the traced pass runs minutes after
			// the untraced repeats it is compared with.
			traced := calibrated(t.tr.dur(t.root), kernel).Seconds()
			wr.PerLayer["bench.trace_overhead_share"] = ratio(traced, summarize(e2e["wall_s"]).Median) - 1
			wr.PerLayer["core.ckpt_overhead_x"] = ckptOverhead(m.sc, m.medianWall())
			if err := os.MkdirAll(cfg.traceOut, 0o755); err != nil {
				return nil, err
			}
			if err := t.tr.writeChrome(filepath.Join(cfg.traceOut, m.w.Name+".trace.json")); err != nil {
				return nil, err
			}
		}
		for _, f := range m.faults {
			rep.Faults = append(rep.Faults, f.Error())
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if cfg.trace != 0 {
		rep.Shared = layerCells()
		speedup, identical, err := pdes(cfg.seed, cfg.scale)
		if err != nil {
			return nil, err
		}
		rep.Shared["sim.pdes_speedup"] = speedup
		rep.Shared["sim.pdes_identical"] = 0
		if identical {
			rep.Shared["sim.pdes_identical"] = 1
		} else {
			rep.Faults = append(rep.Faults, "sim.pdes_identical: intra_workers changed the fingerprint")
		}
	}
	return rep, nil
}

// untracedPass sets every selected workload up, then runs the timed repeats
// round-robin. With -seconds a workload keeps repeating until its timed
// repeats have taken that long (half of it when the traced pass follows in
// the same budget); otherwise it makes -repeats of them. The profiles cover
// the timed repeats only.
func untracedPass(cfg config, h *host) ([]*measurement, error) {
	var ms []*measurement
	for _, w := range cfg.workloads {
		m, err := prepare(w, cfg.seed, cfg.scale, h)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace == 1 {
		budget /= 2
	}
	wants := func(m *measurement) bool {
		if budget > 0 {
			return m.timedWall() < budget
		}
		return len(m.timed) < cfg.repeats
	}

	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	for again := true; again; {
		again = false
		for _, m := range ms {
			if wants(m) {
				m.repeat()
				again = true
			}
		}
	}
	if cfg.memProfile != "" {
		f, err := os.Create(cfg.memProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		runtime.GC() // the allocs profile is complete as of the last collection
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// runAA runs the untraced suite twice back to back and prints, per workload
// and end-to-end metric, by how much the second set's median is worse than
// the first's, beside the bound. Any difference beyond the bound, in either
// direction, means the bound is tighter than this host's noise.
func runAA(cfg config) int {
	cfg.trace = 0
	var sets [2]*report
	for i := range sets {
		rep, err := runSuite(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if !rep.correct() {
			rep.print(os.Stdout)
			return 1
		}
		sets[i] = rep
	}
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	breached := false
	for i, a := range sets[0].Workloads {
		b := sets[1].Workloads[i]
		for _, d := range endToEndDefs {
			x, y := a.EndToEnd[d.Name].Median, b.EndToEnd[d.Name].Median
			worse := ratio(y-x, x)
			if d.Better == higher {
				worse = -worse
			}
			mark := ""
			if worse > d.Bound || worse < -d.Bound {
				mark = "  BREACH"
				breached = true
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+8.2f%% %6g%%%s\n", a.Workload, d.Name, x, y, worse*100, d.Bound*100, mark)
		}
	}
	if breached {
		return 1
	}
	return 0
}
