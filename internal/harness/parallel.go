package harness

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// The paper-scale studies are embarrassingly parallel: every cell of
// Fig. 1/2/3/5 and Table 2 is an independent single-threaded simulation
// with its own Simulator, deployment and recorder. RunMany fans the cells
// of a study across a worker pool so a sweep finishes ~GOMAXPROCS faster,
// while each individual simulation stays sequential and deterministic.
//
// Determinism: a cell's result is a pure function of its Scenario (the
// virtual-time kernel draws randomness only from the scenario seed), so
// results are byte-identical regardless of worker count or scheduling
// order — TestRunManyMatchesSequential asserts this.

// workersOverride, when positive, fixes the worker count. 0 = automatic.
var workersOverride atomic.Int64

// SetWorkers overrides the RunMany worker count. n <= 0 restores the
// default (GOMAXPROCS, or the SETCHAIN_WORKERS environment variable).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workersOverride.Store(int64(n))
}

// Workers reports the configured worker count RunMany starts from. When
// neither SetWorkers nor SETCHAIN_WORKERS pins a count, RunMany may lower
// this automatically for memory-heavy cells (see autoWorkers).
func Workers() int {
	if n := workersConfigured(); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// workersConfigured returns the explicitly requested worker count, or 0
// when the choice is left to RunMany.
func workersConfigured() int {
	if n := int(workersOverride.Load()); n > 0 {
		return n
	}
	if v := os.Getenv("SETCHAIN_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

// inFlightElementBudget bounds the elements materialized by concurrently
// running cells when the worker count is chosen automatically. A paper-scale
// cell keeps every element in per-server sets across 10 servers: measured,
// 474 bytes of live heap per element all-in (bench workload hash10k, n = 10:
// live_heap_mb 135.7 MiB ÷ attempted 300,000; `bash bench/run.sh -workload
// hash10k -trace 0` re-measures it), so 8M in-flight elements peak near 4 GB
// — what 4M did while the same figure was 1.19 KB, and within what the
// previously sequential studies already needed for their largest single
// cell. Explicit SetWorkers / SETCHAIN_WORKERS / -workers settings bypass
// this cap.
const inFlightElementBudget = 8e6

// estimatedElements approximates how many elements a cell materializes:
// the send rate times the send window (after scaling and defaulting).
func estimatedElements(sc Scenario) float64 {
	sc = sc.withDefaults()
	return sc.Rate * sc.SendFor.Seconds()
}

// autoWorkers picks the automatic worker count for a batch: GOMAXPROCS,
// lowered so the largest cells cannot blow peak memory when run abreast.
func autoWorkers(scs []Scenario) int {
	w := runtime.GOMAXPROCS(0)
	var maxEl float64
	for _, sc := range scs {
		if e := estimatedElements(sc); e > maxEl {
			maxEl = e
		}
	}
	if maxEl > 0 {
		if byMem := int(inFlightElementBudget / maxEl); byMem < w {
			w = byMem
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunMany executes every scenario and returns the results in input order.
// Scenarios run concurrently: on the explicitly configured worker count if
// one was set, otherwise on GOMAXPROCS workers lowered automatically so the
// batch's largest cells cannot multiply peak memory past what the biggest
// single cell already needs (autoWorkers). Pass a single scenario (or
// SetWorkers(1)) for strictly sequential execution. Seeds are never
// rewritten: each cell keeps the seed its Scenario carries (1 unless its
// spec set one), exactly as a sequential Run loop would.
func RunMany(scs []Scenario) []*Result {
	results := make([]*Result, len(scs))
	if len(scs) == 0 {
		return results
	}
	workers := workersConfigured()
	if workers == 0 {
		workers = autoWorkers(scs)
	}
	if workers > len(scs) {
		workers = len(scs)
	}
	if workers <= 1 {
		for i, sc := range scs {
			results[i] = Run(sc)
		}
		return results
	}
	// One forced collection up front instead of one per cell: the workers
	// themselves must not call runtime.GC (it is global and would act as a
	// barrier across the pool).
	runtime.GC()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(scs) {
					return
				}
				results[i] = runScenario(scs[i])
			}
		}()
	}
	wg.Wait()
	return results
}
