package main

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/spec"
	"repro/internal/textplot"
)

// renderers maps registry entries to their figure-specific renderers:
// pure functions of the entry and its cells' results (nil for an analytic
// entry), in cell order. Entries without one (every entry beyond the
// paper's figures) print the generic results table, so registering an
// experiment is enough to make it runnable. The -list order is the
// registry's.
var renderers = map[string]func(w io.Writer, e spec.Entry, results []*harness.Result){
	"table1":    renderTable1,
	"table2":    renderTable2,
	"fig1":      renderFig1,
	"fig2left":  renderFig2Left,
	"fig2right": renderFig2Right,
	"fig3a":     effChart,
	"fig3b":     effChart,
	"fig3c":     effChart,
	"fig4":      renderFig4,
	"fig5a":     commitChart,
	"fig5b":     commitChart,
	"fig5c":     commitChart,
	"d1":        renderD1,
}

// gridTitles are the chart titles of the Fig. 3 and Fig. 5 grids, which
// share one renderer each.
var gridTitles = map[string]string{
	"fig3a": "Fig. 3a: efficiency vs sending rate (10 servers, no delay)",
	"fig3b": "Fig. 3b: efficiency vs number of servers (10,000 el/s, no delay)",
	"fig3c": "Fig. 3c: efficiency vs network delay (10 servers, 10,000 el/s)",
	"fig5a": "Fig. 5a: commit times vs sending rate (10 servers, no delay)",
	"fig5b": "Fig. 5b: commit times vs number of servers (10,000 el/s)",
	"fig5c": "Fig. 5c: commit times vs network delay (10 servers, 10,000 el/s)",
}

func renderTable1(w io.Writer, _ spec.Entry, _ []*harness.Result) {
	g := spec.PaperGrid()
	t := &textplot.Table{
		Title:   "Table 1: Parameters for Setchain evaluation",
		Headers: []string{"Name", "Description", "Values"},
	}
	t.AddRow("sending_rate", "Adding rate (el/s)", join(g.SendingRates, func(v float64) string { return fmt.Sprintf("%.0f", v) }))
	t.AddRow("collector_limit", "Collector size (el)", join(g.Collectors, strconv.Itoa))
	t.AddRow("server_count", "Number of servers", join(g.ServerCounts, strconv.Itoa))
	t.AddRow("network_delay", "Delay increase (ms)", join(g.NetworkDelays, func(d time.Duration) string { return strconv.FormatInt(d.Milliseconds(), 10) }))
	fmt.Fprint(w, t.Render())
}

// join formats every value and separates them with ", ".
func join[T any](vs []T, format func(T) string) string {
	p := make([]string, len(vs))
	for i, v := range vs {
		p[i] = format(v)
	}
	return strings.Join(p, ", ")
}

// renderTable2 prints one row per Fig. 1 cell; a cell's Group is its panel.
func renderTable2(w io.Writer, e spec.Entry, results []*harness.Result) {
	t := &textplot.Table{
		Title: "Table 2: Throughput comparison (avg to end of sending) for Fig. 1\n" +
			"paper:  left  V=171  C=996  H=4183 | center C=571 H=2540 | right C=743 H=7369",
		Headers: []string{"Panel", "Algorithm", "Measured el/s", "Analytical el/s"},
	}
	for i, res := range results {
		t.AddRow(e.Cells[i].Group, res.Scenario.Spec.Label(),
			fmt.Sprintf("%.0f", res.AvgTput), fmt.Sprintf("%.0f", res.Analytical))
	}
	fmt.Fprint(w, t.Render())
}

// seriesXY splits a result's throughput curve into plot coordinates.
func seriesXY(res *harness.Result) (xs, ys []float64) {
	for _, pt := range res.Series {
		xs = append(xs, pt.Time.Seconds())
		ys = append(ys, pt.Rate)
	}
	return xs, ys
}

// renderFig1 plots one panel per run of consecutive cells sharing a Group.
// A panel's title takes its rate from the results (the rate that ran, scale
// applied) and its collector size from the largest among its variants
// (Vanilla has none).
func renderFig1(w io.Writer, e spec.Entry, results []*harness.Result) {
	for lo := 0; lo < len(results); {
		hi := lo + 1
		for hi < len(results) && e.Cells[hi].Group == e.Cells[lo].Group {
			hi++
		}
		panel := results[lo:hi]
		collector := 0
		for _, res := range panel {
			collector = max(collector, res.Scenario.Spec.Collector)
		}
		p := &textplot.LinePlot{
			Title: fmt.Sprintf("Fig. 1 (%s): throughput over time — rate %.0f el/s, c=%d, 10 servers",
				e.Cells[lo].Group, panel[0].Scenario.Rate, collector),
			XLabel: "time (s)", YLabel: "el/s (9 s rolling avg)",
			LogY:   true,
			HLines: map[string]float64{},
		}
		for _, res := range panel {
			xs, ys := seriesXY(res)
			p.Add(res.Scenario.Spec.Label(), xs, ys)
			p.HLines["min(rate,analytic) "+res.Scenario.Spec.Label()] = min(res.Scenario.Rate, res.Analytical)
		}
		fmt.Fprint(w, p.Render())
		fmt.Fprintln(w)
		lo = hi
	}
}

func renderFig2Left(w io.Writer, e spec.Entry, results []*harness.Result) {
	p := &textplot.LinePlot{
		Title: "Fig. 2 (left): highest throughput, c=500, 10 servers\n" +
			"paper: Hashchain w/ reversal avg 20,061 el/s; Hashchain Light avg 133,882 el/s",
		XLabel: "time (s)", YLabel: "el/s (9 s rolling avg)",
		LogY: true,
	}
	t := &textplot.Table{Headers: []string{"Variant", "Sending el/s", "Avg to send-end el/s", "Analytical el/s"}}
	for i, res := range results {
		label := e.Cells[i].Label()
		xs, ys := seriesXY(res)
		p.Add(label, xs, ys)
		t.AddRow(label, fmt.Sprintf("%.0f", res.Scenario.Rate),
			fmt.Sprintf("%.0f", res.AvgTput), fmt.Sprintf("%.0f", res.Analytical))
	}
	fmt.Fprint(w, p.Render())
	fmt.Fprintln(w)
	fmt.Fprint(w, t.Render())
}

func renderFig2Right(w io.Writer, _ spec.Entry, _ []*harness.Result) {
	sweep := analysis.BlockSizeSweep()
	p := &textplot.LinePlot{
		Title:  "Fig. 2 (right): analytical throughput vs block size (c=500)",
		XLabel: "block size (MB, doubling)", YLabel: "el/s",
		LogY: true,
	}
	var xs, v, c, h []float64
	for i, pt := range sweep {
		xs = append(xs, float64(i)) // doubling steps, log-x effectively
		v = append(v, pt.Vanilla)
		c = append(c, pt.Compresschain)
		h = append(h, pt.Hashchain)
	}
	p.Add("Vanilla", xs, v)
	p.Add("Compresschain", xs, c)
	p.Add("Hashchain", xs, h)
	fmt.Fprint(w, p.Render())
	t := &textplot.Table{Headers: []string{"Block MB", "Vanilla", "Compresschain", "Hashchain"}}
	for _, pt := range sweep {
		t.AddRow(fmt.Sprintf("%g", pt.BlockMB), fmt.Sprintf("%.0f", pt.Vanilla),
			fmt.Sprintf("%.0f", pt.Compresschain), fmt.Sprintf("%.0f", pt.Hashchain))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, t.Render())
}

// effChart renders a Fig. 3 grid: one bar group per Group (the varied
// parameter's value), three efficiency checkpoints per variant.
func effChart(w io.Writer, e spec.Entry, results []*harness.Result) {
	groups := map[string]*textplot.BarGroup{}
	var order []string
	for i, res := range results {
		param, label := e.Cells[i].Group, res.Scenario.Spec.Label()
		g, ok := groups[param]
		if !ok {
			g = &textplot.BarGroup{Label: param}
			groups[param] = g
			order = append(order, param)
		}
		g.Bars = append(g.Bars,
			textplot.Bar{Name: label + " @send-end", Value: res.Eff50},
			textplot.Bar{Name: label + " @1.5x", Value: res.Eff75},
			textplot.Bar{Name: label + " @2.0x", Value: res.Eff100},
		)
	}
	chart := &textplot.BarChart{Title: gridTitles[e.Name], Max: 1}
	for _, name := range order {
		chart.Group = append(chart.Group, *groups[name])
	}
	fmt.Fprint(w, chart.Render())
}

func renderFig4(w io.Writer, _ spec.Entry, results []*harness.Result) {
	for _, res := range results {
		data := map[string][]float64{}
		reach := map[string]float64{}
		for st := metrics.StageFirstMempool; st <= metrics.StageCommitted; st++ {
			lats, frac := res.Recorder.LatencyCDF(st)
			var xs []float64
			for _, d := range lats {
				xs = append(xs, d.Seconds())
			}
			data[st.String()] = xs
			reach[st.String()] = frac
		}
		fmt.Fprint(w, textplot.CDF(
			fmt.Sprintf("Fig. 4 (%s): latency CDF to five stages — 10 servers, 1250 el/s, c=100",
				res.Scenario.Spec.Label()),
			72, 18, data, reach))
		commit, _ := res.Recorder.LatencyCDF(metrics.StageCommitted)
		fmt.Fprintf(w, "  commit latency: p50=%v p95=%v p99=%v (paper: finality < 4 s w.p. ~1)\n\n",
			metrics.LatencyQuantile(commit, 0.50).Round(time.Millisecond),
			metrics.LatencyQuantile(commit, 0.95).Round(time.Millisecond),
			metrics.LatencyQuantile(commit, 0.99).Round(time.Millisecond))
	}
}

// commitChart renders a Fig. 5 grid: the time each fraction of the added
// elements had committed, one row per cell.
func commitChart(w io.Writer, e spec.Entry, results []*harness.Result) {
	t := &textplot.Table{
		Title:   gridTitles[e.Name],
		Headers: []string{"Scenario", "Variant", "first", "10%", "20%", "30%", "40%", "50%"},
	}
	for i, res := range results {
		row := []string{e.Cells[i].Group, res.Scenario.Spec.Label()}
		for _, pct := range []int{0, 10, 20, 30, 40, 50} {
			if tm, ok := res.CommitFrac[pct]; ok {
				row = append(row, fmt.Sprintf("%.0fs", tm.Seconds()))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	fmt.Fprint(w, t.Render())
}

func renderD1(w io.Writer, _ spec.Entry, _ []*harness.Result) {
	t := &textplot.Table{
		Title: "Appendix D.1: analytical throughput (n=10, C=0.5 MiB, R=0.8 b/s, le=438, lp=lh=139)\n" +
			"paper: Tv≈955, Tc[100]≈2497, Tc[500]≈3330, Th[100]≈27157, Th[500]≈147857",
		Headers: []string{"Algorithm", "Collector", "Throughput el/s"},
	}
	rows := analysis.D1Table()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Throughput < rows[j].Throughput })
	for _, r := range rows {
		c := "-"
		if r.Collector > 0 {
			c = fmt.Sprintf("%d", r.Collector)
		}
		t.AddRow(r.Label, c, fmt.Sprintf("%.0f", r.Throughput))
	}
	fmt.Fprint(w, t.Render())
	p := analysis.PaperParams()
	p.CollectorSize = 500
	fmt.Fprintf(w, "\nheadline ratios: Th[500]/Tv = %.0f (paper ~155), Th[500]/Tc[500] = %.0f (paper ~44)\n",
		analysis.HashchainThroughput(p)/analysis.VanillaThroughput(p),
		analysis.HashchainThroughput(p)/analysis.CompresschainThroughput(p))
}
