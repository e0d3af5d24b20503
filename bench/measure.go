package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"repro/internal/harness"
)

// unreachableHeapMB is a HeapCeilingMB no run can breach: setting it makes
// harness.Run take its own forced-GC live-heap measurement (deployment
// pinned) without ever tripping the ceiling.
const unreachableHeapMB = 1 << 20

// outcome is what one harness.Run leaves behind once its Result (and the
// recorder it pins) has been dropped: host-side costs, the simulated
// figures, and the digest the correctness gate compares.
type outcome struct {
	wall       time.Duration
	kernel     time.Duration // mean reference-kernel time around the run, see calibrate.go
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcCPU      float64 // seconds of GC CPU during the run
	totalCPU   float64 // seconds of CPU the runtime had available during the run
	heapSys    uint64

	events, committed, offered, netMsgs uint64
	tput                                float64 // Result.AvgTput, virtual el/s
	half                                float64 // Result.CommitFrac[50], virtual s
	heapLiveMB                          float64 // -1 unless the scenario set a ceiling
	digest                              [sha256.Size]byte
	fault                               error // why the correctness gate refuses this run
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

// runOnce times one untraced harness.Run. FreeOSMemory's forced collection
// and release of free pages before the clock starts make repeats
// independent of each other's garbage; harness.Run's own leading runtime.GC
// stays inside the timed region because a caller of the harness pays it too.
func runOnce(sc harness.Scenario) outcome {
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, cpu0 := readCPU()
	t0 := time.Now()
	res := harness.Run(sc)
	wall := time.Since(t0)
	gc1, cpu1 := readCPU()
	runtime.ReadMemStats(&m1)

	o := outcome{
		wall:       wall,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcCPU:      gc1 - gc0,
		totalCPU:   cpu1 - cpu0,
		heapSys:    m1.HeapSys,
		events:     res.Events,
		committed:  res.Committed,
		offered:    res.Offered,
		netMsgs:    res.NetMsgs,
		tput:       res.AvgTput,
		half:       res.CommitFrac[50].Seconds(),
		heapLiveMB: res.HeapLiveMB,
	}
	// The heap ceiling is a measurement switch, not part of the simulated
	// behaviour: normalise it away so the warm-up's digest equals the timed
	// repeats'.
	clone := *res
	clone.Scenario.HeapCeilingMB = 0
	o.digest = sha256.Sum256(harness.Fingerprint(&clone))
	switch {
	case res.Invariant != nil:
		o.fault = fmt.Errorf("invariant violated: %w", res.Invariant)
	case res.HeapViolation:
		o.fault = fmt.Errorf("heap ceiling breached at %.0f MiB", res.HeapLiveMB)
	case res.Injected == 0:
		o.fault = fmt.Errorf("the workload injected nothing")
	case res.Committed != res.Injected:
		o.fault = fmt.Errorf("committed %d of %d injected elements by the horizon", res.Committed, res.Injected)
	}
	return o
}

// measurement is one workload's untraced pass: the cold warm-up (which is
// also the memory repeat) and the timed repeats.
type measurement struct {
	w      workloadDef
	sc     harness.Scenario
	host   *host
	setup  time.Duration // process work before the first timed repeat, host-calibrated
	warm   outcome
	timed  []outcome
	faults []error
}

// prepare does a workload's set-up: load and validate the spec, convert it,
// and run the cold warm-up repeat with the live-heap measurement on.
func prepare(w workloadDef, seed int64, scale float64, h *host) (*measurement, error) {
	m := &measurement{w: w, host: h}
	var err error
	var raw time.Duration
	kernel := h.around(func() {
		t0 := time.Now()
		if m.sc, err = loadScenario(workloadPath(w.Name), seed, scale); err != nil {
			return
		}
		warm := m.sc
		warm.HeapCeilingMB = unreachableHeapMB
		m.warm = runOnce(warm)
		raw = time.Since(t0)
	})
	if err != nil {
		return nil, err
	}
	m.setup = calibrated(raw, kernel)
	m.gate(m.warm)
	return m, nil
}

// repeat adds one timed repeat.
func (m *measurement) repeat() {
	var o outcome
	kernel := m.host.around(func() { o = runOnce(m.sc) })
	o.kernel = kernel
	m.timed = append(m.timed, o)
	m.gate(o)
}

// gate applies the correctness gate to one run: its own verdict, and the
// same fingerprint digest as the warm-up.
func (m *measurement) gate(o outcome) {
	if o.fault != nil {
		m.faults = append(m.faults, fmt.Errorf("%s: %w", m.w.Name, o.fault))
	}
	if o.digest != m.warm.digest {
		m.faults = append(m.faults, fmt.Errorf("%s: fingerprint %x differs from the warm-up's %x",
			m.w.Name, o.digest[:6], m.warm.digest[:6]))
	}
}

// endToEnd returns the samples behind each end-to-end metric, keyed by the
// names in endToEndDefs.
func (m *measurement) endToEnd() map[string][]float64 {
	out := map[string][]float64{
		"setup_s":           {m.setup.Seconds()},
		"live_heap_mb":      {m.warm.heapLiveMB},
		"sim_commit_half_s": {m.warm.half},
	}
	for _, o := range m.timed {
		out["wall_s"] = append(out["wall_s"], calibrated(o.wall, o.kernel).Seconds())
		out["alloc_mb"] = append(out["alloc_mb"], float64(o.allocBytes)/1e6)
		out["mallocs_k"] = append(out["mallocs_k"], float64(o.mallocs)/1e3)
	}
	return out
}

// medianWall is the median raw wall time of the timed repeats.
func (m *measurement) medianWall() time.Duration {
	walls := make([]float64, len(m.timed))
	for i, o := range m.timed {
		walls[i] = float64(o.wall)
	}
	return time.Duration(summarize(walls).Median)
}

// timedWall is the wall time the timed repeats have taken so far.
func (m *measurement) timedWall() time.Duration {
	var total time.Duration
	for _, o := range m.timed {
		total += o.wall
	}
	return total
}

// runtimeMetrics are the Go-runtime figures of the timed repeats, each the
// median over repeats; the runtime is the resource every layer shares.
func (m *measurement) runtimeMetrics() map[string]float64 {
	samples := map[string][]float64{}
	for _, o := range m.timed {
		ev := float64(o.events)
		for name, v := range map[string]float64{
			"runtime.ns_per_event":     ratio(float64(o.wall), ev),
			"runtime.allocs_per_event": ratio(float64(o.mallocs), ev),
			"runtime.bytes_per_event":  ratio(float64(o.allocBytes), ev),
			"runtime.gc_cycles":        float64(o.gcCycles),
			"runtime.gc_cpu_share":     ratio(o.gcCPU, o.totalCPU),
			"runtime.heap_sys_mb":      float64(o.heapSys) / (1 << 20),
			"bench.host_slowdown_x":    float64(o.kernel) / float64(refNominal),
		} {
			samples[name] = append(samples[name], v)
		}
	}
	return medians(samples)
}
