package invariant

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// oracleSnaps is the checker without the shared walk: every correct server
// is walked element by element into a table of its own — a Go map, not an
// IDMap — the_set is compared with that table one probe per id, and every
// server is compared with the longest element by element (checkPrefix told
// that nobody mirrors anybody). It is what checkSnaps must agree with,
// verdict for verdict, on any state (FuzzCheckerMirror, TestMirrorMutations).
// The checkpoint and loss checks are per server and untouched by the shared
// walk; the oracle calls them.
func oracleSnaps(rep *report, snaps map[wire.NodeID]core.Snapshot, cfg Config) {
	for _, id := range cfg.Correct {
		snap, ok := snaps[id]
		if !ok {
			continue
		}
		checkCheckpoints(rep, id, snap)
		seen := make(map[wire.ElementID]uint64)
		for i, ep := range snap.History {
			if ep.Number != snap.PrunedEpochs+uint64(i+1) {
				rep.addf("server %d: non-monotone history: epoch at position %d (base %d) is numbered %d",
					id, i, snap.PrunedEpochs, ep.Number)
			}
			for _, e := range ep.Elements {
				if at, dup := seen[e.ID]; dup {
					rep.addf("server %d: element %v duplicated: epochs %d and %d",
						id, e.ID, at, ep.Number)
				}
				seen[e.ID] = ep.Number
				if e.Bogus {
					rep.addf("server %d: invalid (bogus) element %v committed in epoch %d",
						id, e.ID, ep.Number)
				}
				if cfg.Rejected != nil && cfg.Rejected.Has(e.ID) {
					rep.addf("server %d: admission-rejected element %v committed in epoch %d",
						id, e.ID, ep.Number)
					continue
				}
				if cfg.Injected != nil && !cfg.Injected.Has(e.ID) {
					rep.addf("server %d: fabricated element %v in epoch %d: never injected by the workload",
						id, e.ID, ep.Number)
				}
			}
		}
		for eid, e := range theSet(snap.TheSet) {
			if _, inHistory := seen[eid]; inHistory {
				continue
			}
			if e.Bogus {
				rep.addf("server %d: invalid (bogus) element %v in the set below the prune horizon",
					id, eid)
				continue
			}
			if cfg.Injected != nil && !cfg.Injected.Has(eid) {
				rep.addf("server %d: fabricated element %v in the set: never injected by the workload",
					id, eid)
			}
		}
		for eid, epoch := range seen {
			if !snap.TheSet.Has(eid) {
				rep.addf("server %d: element %v of epoch %d is not in the set", id, eid, epoch)
			}
		}
	}

	var ref wire.NodeID
	refTotal := -1
	for _, id := range cfg.Correct {
		if snap, ok := snaps[id]; ok {
			if total := int(snap.PrunedEpochs) + len(snap.History); total > refTotal {
				ref, refTotal = id, total
			}
		}
	}
	if refTotal >= 0 {
		refSnap := snaps[ref]
		for _, id := range cfg.Correct {
			snap, ok := snaps[id]
			if !ok || id == ref {
				continue
			}
			checkPrefix(rep, id, snap, ref, refSnap, false)
		}
	}
	checkLoss(rep, snaps, cfg)
}

// verdicts returns a report's violations as sorted lines. Past maxReported
// a report keeps whichever violations came first, so two reports of the same
// violations in another order would differ in what they kept: there, only
// the count is comparable, and the lines are left out.
func verdicts(rep *report) (lines []string, count int) {
	if rep.dropped > 0 {
		return nil, rep.count()
	}
	for _, err := range rep.errs {
		lines = append(lines, err.Error())
	}
	slices.Sort(lines)
	return lines, rep.count()
}

// agreeWithOracle runs checkSnaps and the oracle on one state, fails the
// test if their verdicts differ in anything but line order, and returns the
// shared walk's report.
func agreeWithOracle(t *testing.T, w world) *report {
	t.Helper()
	got, want := &report{}, &report{}
	checkSnaps(got, w.snaps, w.cfg)
	oracleSnaps(want, w.snaps, w.cfg)
	gotLines, gotCount := verdicts(got)
	wantLines, wantCount := verdicts(want)
	if gotCount != wantCount || !slices.Equal(gotLines, wantLines) {
		t.Fatalf("shared walk and one-server-at-a-time oracle disagree\nshared walk (%d):\n  %s\noracle (%d):\n  %s",
			gotCount, strings.Join(gotLines, "\n  "), wantCount, strings.Join(wantLines, "\n  "))
	}
	return got
}
