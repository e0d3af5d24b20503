package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// conditions states what a run's numbers were taken under; figures from
// different hosts or settings are not comparable.
type conditions struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Load       string  `json:"load"`
}

func currentConditions(seed int64, scale float64) conditions {
	host, _ := os.Hostname() // a missing host name is reported as empty, nothing depends on it
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return conditions{
		Host: host, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GitRev: rev,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc, Seed: seed, Scale: scale,
		Load: "one process, workloads in fixed order, intra_workers=1, modeled crypto; " +
			"open loop in virtual time: the generator injects on its schedule whatever " +
			"the commit rate, so generator lag is zero by construction",
	}
}

// workloadReport is everything the benchmark says about one workload.
type workloadReport struct {
	Workload string `json:"workload"`
	// Digest is the SHA-256 of harness.Fingerprint, equal across all of the
	// workload's repeats: two commits simulate the same behaviour exactly
	// when their digests agree.
	Digest    string             `json:"digest"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	WallRawS  float64            `json:"wall_raw_s"` // median of the timed repeats, not host-calibrated
	HorizonS  float64            `json:"horizon_virt_s"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// report is one run of the benchmark. Shared holds the per-layer metrics
// that do not depend on the workload (layer cells, the PDES figure).
type report struct {
	Conditions conditions         `json:"conditions"`
	Workloads  []workloadReport   `json:"workloads"`
	Shared     map[string]float64 `json:"shared_per_layer,omitempty"`
	Faults     []string           `json:"faults,omitempty"`
}

func (r *report) correct() bool { return len(r.Faults) == 0 }

func (r *report) print(w io.Writer) {
	c := r.Conditions
	fmt.Fprintf(w, "conditions: host=%s nproc=%d %s rev=%s GOMAXPROCS=%d GOGC=%s seed=%d scale=%g\n",
		c.Host, c.NProc, c.GoVersion, c.GitRev, c.GOMAXPROCS, c.GOGC, c.Seed, c.Scale)
	fmt.Fprintf(w, "load: %s\n", c.Load)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n== %s  digest %s  attempted %d  failed %d\n", wr.Workload, wr.Digest, wr.Attempted, wr.Failed)
		if wr.EndToEnd != nil {
			fmt.Fprintf(w, "  %-34s %-8s %-7s %-6s %14s %14s %14s %3s\n",
				"end-to-end metric", "unit", "better", "bound", "median", "min", "max", "n")
			for _, d := range endToEndDefs {
				s := wr.EndToEnd[d.Name]
				fmt.Fprintf(w, "  %-34s %-8s %-7s %-6s %14.6g %14.6g %14.6g %3d\n",
					d.Name, d.Unit, d.Better, fmt.Sprintf("%g%%", d.Bound*100), s.Median, s.Min, s.Max, s.N)
			}
			fmt.Fprintf(w, "  (not metrics: wall_raw_s %.6g before host calibration; virt_s_per_wall_s %.0f, for continuity with the legacy probe)\n",
				wr.WallRawS, ratio(wr.HorizonS, wr.WallRawS))
		}
		printLayer(w, "per-layer metric", wr.PerLayer)
	}
	printLayer(w, "\n== shared per-layer metric", r.Shared)
	for _, f := range r.Faults {
		fmt.Fprintf(w, "FAULT: %s\n", f)
	}
}

func printLayer(w io.Writer, title string, values map[string]float64) {
	if len(values) == 0 {
		return
	}
	fmt.Fprintf(w, "  %-34s %-8s %-7s %14s\n", title, "unit", "better", "value")
	for _, d := range perLayerDefs {
		if v, ok := values[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %-8s %-7s %14.6g\n", d.Name, d.Unit, d.Better, v)
		}
	}
}

// resultLine is the contract's last line of standard output for a
// single-workload run: with the traced pass off the end-to-end metrics,
// with it on the per-layer ones.
func (r *report) resultLine(traced bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	wr := r.Workloads[0]
	metrics := map[string]value{}
	if traced {
		for _, d := range perLayerDefs {
			v, ok := wr.PerLayer[d.Name]
			if !ok {
				v = r.Shared[d.Name]
			}
			metrics[d.Name] = value{v, d.Unit}
		}
	} else {
		for _, d := range endToEndDefs {
			metrics[d.Name] = value{wr.EndToEnd[d.Name].Median, d.Unit}
		}
	}
	attempted := wr.Attempted
	if attempted == 0 {
		attempted = 1 // the set-up itself failed: one operation attempted, one failed
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": attempted, "failed": wr.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: result line: %v", err)) // plain values only; a bug here, not a data condition
	}
	return string(line)
}
