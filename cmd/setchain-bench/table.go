package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/spec"
	"repro/internal/textplot"
)

// renderTable prints the generic results table of any cell list.
func renderTable(w io.Writer, e spec.Entry, results []*harness.Result) {
	cells := e.Cells
	// One pass picks the optional columns (a column shows when any cell
	// uses it) and builds each cell's group-prefixed label.
	var stages, faulted, sharded, ckpt, heap, open bool
	labels := make([]string, len(cells))
	for i, c := range cells {
		stages = stages || c.Metrics == spec.MetricsStages
		faulted = faulted || c.Faults != nil && len(c.Faults.Events) > 0
		sharded = sharded || c.Shards > 1
		ckpt = ckpt || c.CheckpointInterval > 0
		heap = heap || c.HeapCeilingMB > 0
		open = open || c.Admission != nil || c.Open != nil
		labels[i] = c.Label()
		if c.Group != "" {
			labels[i] = c.Group + " " + labels[i]
		}
	}
	headers := []string{"Scenario", "n", "Rate el/s", "Delay",
		"Injected", "Committed", "Avg el/s", "Eff@2x", "Analytic", "Safety"}
	if sharded {
		// n stays the per-shard group size; S is the shard count.
		headers = append(headers, "S")
	}
	if ckpt {
		// Seals are the observer's checkpoint count; syncs count servers
		// that recovered via checkpoint state-sync instead of full replay.
		headers = append(headers, "Ckpts", "Syncs")
	}
	if heap {
		headers = append(headers, "Heap MiB")
	}
	if faulted {
		headers = append(headers, "Faults")
	}
	if open {
		// Offered counts every generation attempt (accepted + rejected);
		// Rej% is the admission gate's shed fraction; Fair is the Jain
		// index over per-client acceptance ratios.
		headers = append(headers, "Offered", "Rej%", "Fair")
	}
	if stages {
		headers = append(headers, "p50 commit", "p99 commit")
	}
	t := &textplot.Table{Title: "Scenario results", Headers: headers}
	for i, res := range results {
		sc := res.Scenario
		label := labels[i]
		safety := "ok"
		if res.Invariant != nil {
			safety = "VIOLATED"
			fmt.Fprintf(os.Stderr, "SAFETY VIOLATION in %q:\n%v\n", label, res.Invariant)
		}
		row := []string{
			label,
			fmt.Sprintf("%d", sc.Servers),
			fmt.Sprintf("%.0f", sc.Rate),
			sc.NetworkDelay.String(),
			fmt.Sprintf("%d", res.Injected),
			fmt.Sprintf("%d", res.Committed),
			fmt.Sprintf("%.0f", res.AvgTput),
			fmt.Sprintf("%.3f", res.Eff100),
			fmt.Sprintf("%.0f", res.Analytical),
			safety,
		}
		if sharded {
			s := sc.Shards
			if s < 1 {
				s = 1
			}
			row = append(row, fmt.Sprintf("%d", s))
		}
		if ckpt {
			row = append(row, fmt.Sprintf("%d", res.CheckpointSeals),
				fmt.Sprintf("%d", res.SyncInstalls))
		}
		if heap {
			h := "-"
			if res.HeapLiveMB >= 0 {
				h = fmt.Sprintf("%.0f/%d", res.HeapLiveMB, sc.HeapCeilingMB)
				if res.HeapViolation {
					h += " OVER"
					fmt.Fprintf(os.Stderr, "HEAP CEILING EXCEEDED in %q: %.0f MiB live > %d MiB ceiling\n",
						label, res.HeapLiveMB, sc.HeapCeilingMB)
				}
			}
			row = append(row, h)
		}
		if faulted {
			row = append(row, cells[i].Faults.Summary())
		}
		if open {
			rej := "-"
			if res.Offered > 0 {
				rej = fmt.Sprintf("%.1f", 100*float64(res.Rejected)/float64(res.Offered))
			}
			row = append(row, fmt.Sprintf("%d", res.Offered), rej,
				fmt.Sprintf("%.3f", res.Fairness))
		}
		if stages {
			p50, p99 := "-", "-"
			if res.Recorder != nil {
				if lats, _ := res.Recorder.LatencyCDF(metrics.StageCommitted); len(lats) > 0 {
					p50 = metrics.LatencyQuantile(lats, 0.50).Round(time.Millisecond).String()
					p99 = metrics.LatencyQuantile(lats, 0.99).Round(time.Millisecond).String()
				}
			}
			row = append(row, p50, p99)
		}
		t.AddRow(row...)
	}
	fmt.Fprint(w, t.Render())
	// Sharded cells get a per-shard breakdown under the table: the
	// aggregate hides router balance and straggler shards.
	for i, res := range results {
		if len(res.PerShard) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s — %s; per shard:\n", labels[i], superepochCount(res))
		for _, st := range res.PerShard {
			fmt.Fprintf(w, "  shard %d: injected %d, committed %d, avg %.0f el/s, %d epochs, %d blocks\n",
				st.Shard, st.Injected, st.Committed, st.AvgTput, st.Epochs, st.Blocks)
		}
	}
}

// superepochCount reports how many superepochs a sharded run formed: one
// per epoch number any shard reached. Pruning drops the prefix below the
// highest checkpoint base from SuperDigests, so the retained count is
// added when it is smaller.
func superepochCount(res *harness.Result) string {
	formed := 0
	for _, st := range res.PerShard {
		formed = max(formed, st.Epochs)
	}
	if kept := len(res.SuperDigests); kept != formed {
		return fmt.Sprintf("%d superepochs (%d retained)", formed, kept)
	}
	return fmt.Sprintf("%d superepochs", formed)
}
