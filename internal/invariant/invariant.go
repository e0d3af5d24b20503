// Package invariant machine-checks Setchain safety on a finished
// deployment: after every harness run — chaos or not — the final state of
// every correct server is compared against the injected workload and
// against the other correct servers. The checks are the paper's safety
// properties made executable:
//
//   - monotone epoch growth: a server's history is numbered 1..k with no
//     gaps or repeats (Setchain's epochs only ever grow);
//   - epoch-prefix consistency: any two correct servers agree on the
//     common prefix of their histories — same epoch hashes and the same
//     element sequences (Get-Global/Consistent-Sets: histories of correct
//     servers are prefixes of one common history);
//   - no duplication: an element is stamped with at most one epoch per
//     server (the_set is a set);
//   - history ⊆ the_set: every element of a server's epochs is in that
//     server's the_set (Consistent-Sets), and every element of the_set
//     that no retained epoch accounts for is valid and was injected;
//   - no fabrication: every element in a correct history was injected by
//     the workload's clients and is valid — a Byzantine server cannot
//     smuggle elements into correct servers' histories;
//   - no loss: every epoch the experiment's observer saw commit (f+1
//     epoch-proofs on the ledger) is present in the observer's history
//     with exactly the element count recorded at creation.
//
// Prefix consistency is the load-bearing check: epochs are
// order-sensitive hashes of their element sequences, so two correct
// servers agreeing on epoch k's hash agree on every element (and order)
// up to k; combined with no-fabrication over the injected set, any
// committed element a run could lose or invent shows up as a finite-state
// difference the checker catches.
//
// Correct servers hold the same epochs, so the per-element checks run once,
// on a reference server; a server whose epochs are the reference's, address
// for address, is not walked again (checkSnaps; DESIGN.md §8 has the
// argument, and oracle_test.go the one-server-at-a-time pass it is held to).
//
// The checker must not be vacuously green: harness tests corrupt a
// correct server's ledger on purpose and assert the checker fails
// (TestCheckerDetectsCorruption in this package's tests). Verdicts
// surface as harness.Result.Invariant, the Safety column of
// setchain-bench (nonzero exit on violation), and the per-cell
// invariant field of run artifacts rendered into RESULTS.md.
//
// See DESIGN.md §8 (fault model and the invariant checker, including
// the safety argument for epoch-prefix checking).
package invariant

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/wire"
)

// Config scopes a check to what the experiment knows.
type Config struct {
	// Correct lists the servers assumed correct. Byzantine servers are
	// excluded (their local state may be arbitrary); crashed-but-honest
	// servers belong here — a crash truncates a history, it must never
	// corrupt it.
	Correct []wire.NodeID
	// Injected is the set of element ids the workload's clients created
	// and servers accepted. Nil skips the fabrication check.
	Injected *wire.IDMap[struct{}]
	// Rejected is the set of element ids admission control refused
	// (workload.Account.RejectedIDs). A rejected element must never
	// appear in a committed epoch: the server returned an error to the
	// client, so letting it commit anyway would break the admission
	// contract. Rejected ids are deliberately NOT in Injected — they also
	// trip the fabrication check — but this check names the violation
	// precisely. Nil skips it.
	Rejected *wire.IDMap[struct{}]
	// CommittedEpochs maps epoch number → element count for every epoch
	// the observer saw gain f+1 epoch-proofs on the ledger
	// (metrics.Recorder.CommittedEpochSizes). Nil skips the loss check.
	CommittedEpochs map[uint64]int
	// Observer is the server whose observations defined commitment
	// (the harness uses server 0).
	Observer wire.NodeID
	// FoldedEpochs/FoldedCommitted mirror the recorder's checkpoint folds
	// (metrics.Recorder.FoldedEpochs/FoldedCommitted): committed epochs at
	// or below FoldedEpochs were dropped from CommittedEpochs when the
	// observer pruned, and their element total is FoldedCommitted. The
	// checker reconciles the total against the observer's checkpoint chain
	// instead of per-epoch history. Zero when nothing was pruned.
	FoldedEpochs    uint64
	FoldedCommitted uint64
}

// maxReported is how many violations a report carries verbatim. A
// systematic fault offends once per (server, element) — millions of times on
// a heavy run — and nobody reads past the first screen; the rest are counted.
const maxReported = 64

// report collects violations: the first maxReported formatted, the rest
// only counted.
type report struct {
	errs    []error
	dropped int
	// visited counts the elements walkHistory looked at, for the test that
	// pins the shared walk's cost.
	visited int
}

// count returns the number of violations so far.
func (r *report) count() int { return len(r.errs) + r.dropped }

func (r *report) addf(format string, args ...any) {
	if len(r.errs) < maxReported {
		r.errs = append(r.errs, fmt.Errorf(format, args...))
	} else {
		r.dropped++
	}
}

// err joins the violations into one error, nil when there were none.
func (r *report) err() error {
	if r.dropped > 0 {
		return errors.Join(append(r.errs, fmt.Errorf("… and %d more violations", r.dropped))...)
	}
	return errors.Join(r.errs...)
}

// Check verifies every invariant against the deployment's final state and
// returns the violations joined into one error (the first maxReported
// verbatim, then a count of the rest), or nil. Call it after the run
// stopped; it only reads server state.
func Check(d *core.Deployment, cfg Config) error {
	rep := &report{}
	snaps := make(map[wire.NodeID]core.Snapshot, len(cfg.Correct))
	for _, id := range cfg.Correct {
		// Resolve by node id, not slice index: sharded worlds offset every
		// shard's node ids, so a shard deployment's servers carry ids that
		// are not their positions.
		srv := d.Server(id)
		if srv == nil {
			rep.addf("correct server %d not in deployment of %d", id, len(d.Servers))
			continue
		}
		snaps[id] = srv.Get()
	}
	checkSnaps(rep, snaps, cfg)
	return rep.err()
}

// checkSnaps checks the final states of the correct servers that were found.
func checkSnaps(rep *report, snaps map[wire.NodeID]core.Snapshot, cfg Config) {
	// The reference is the correct server with the longest history (by total
	// epoch count — pruned prefix included); a server outside cfg.Correct is
	// never it, whatever it holds. It is walked element by element. Another
	// correct server that mirrors a clean reference has the reference's
	// per-element verdicts — none — and is not walked again; one that does
	// not, for whatever reason, is walked in full with a seen map of its own.
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
		var refSeen, seen wire.IDMap[uint64]
		checkCheckpoints(rep, ref, refSnap)
		before := rep.count()
		walkHistory(rep, cfg, ref, refSnap, &refSeen)
		refClean := rep.count() == before
		checkSet(rep, cfg, ref, refSnap, &refSeen)
		for _, id := range cfg.Correct {
			snap, ok := snaps[id]
			if !ok || id == ref {
				continue
			}
			checkCheckpoints(rep, id, snap)
			mirrored, ids := refClean && mirrors(snap, refSnap), &refSeen
			if !mirrored {
				seen.Reset()
				walkHistory(rep, cfg, id, snap, &seen)
				ids = &seen
			}
			checkSet(rep, cfg, id, snap, ids)
			checkPrefix(rep, id, snap, ref, refSnap, mirrored)
		}
	}
	checkLoss(rep, snaps, cfg)
}

// checkLoss is "no committed element lost": every epoch the observer saw
// commit must still be in the observer's history with the recorded element
// count. (Prefix consistency then extends the guarantee to every correct
// server whose history reaches that epoch.)
func checkLoss(rep *report, snaps map[wire.NodeID]core.Snapshot, cfg Config) {
	if cfg.CommittedEpochs != nil {
		obs, ok := snaps[cfg.Observer]
		if !ok && (len(cfg.CommittedEpochs) > 0 || cfg.FoldedEpochs > 0) {
			rep.addf("observer %d not among correct servers; cannot verify %d committed epochs",
				cfg.Observer, len(cfg.CommittedEpochs))
		} else if ok {
			total := obs.PrunedEpochs + uint64(len(obs.History))
			for epoch, count := range cfg.CommittedEpochs {
				if epoch == 0 || epoch > total {
					rep.addf("committed epoch %d lost: observer %d history ends at epoch %d",
						epoch, cfg.Observer, total)
					continue
				}
				if epoch <= obs.PrunedEpochs {
					// Pruned but not folded by the recorder: the per-epoch
					// count is unverifiable; the aggregate check below and
					// cross-server chain agreement cover it.
					continue
				}
				if got := len(obs.History[epoch-1-obs.PrunedEpochs].Elements); got != count {
					rep.addf("committed epoch %d on observer %d has %d elements, recorder saw %d at creation",
						epoch, cfg.Observer, got, count)
				}
			}
			// Committed epochs folded below the prune horizon: their element
			// total must match the observer's checkpoint for that horizon
			// exactly (every epoch at or below a checkpoint is settled, so
			// the folded commit total IS the checkpoint's cumulative count).
			if cfg.FoldedEpochs > 0 {
				found := false
				for _, ck := range obs.Checkpoints {
					if ck.Epoch == cfg.FoldedEpochs {
						found = true
						if ck.Elements != cfg.FoldedCommitted {
							rep.addf("folded committed elements through epoch %d: recorder saw %d, observer checkpoint holds %d",
								cfg.FoldedEpochs, cfg.FoldedCommitted, ck.Elements)
						}
					}
				}
				if !found {
					rep.addf("recorder folded epochs through %d but observer %d has no checkpoint there",
						cfg.FoldedEpochs, cfg.Observer)
				}
			}
		}
	}
}

// walkHistory is the per-element pass over one server's retained history:
// monotone numbering (base-offset when a checkpoint pruned the prefix), no
// duplication, no fabrication. It leaves in seen, which must be empty, the
// epoch of every id the history holds.
func walkHistory(rep *report, cfg Config, id wire.NodeID, snap core.Snapshot, seen *wire.IDMap[uint64]) {
	for i, ep := range snap.History {
		if ep.Number != snap.PrunedEpochs+uint64(i+1) {
			rep.addf("server %d: non-monotone history: epoch at position %d (base %d) is numbered %d",
				id, i, snap.PrunedEpochs, ep.Number)
		}
		rep.visited += len(ep.Elements)
		for _, e := range ep.Elements {
			at, fresh := seen.Slot(e.ID)
			if !fresh {
				rep.addf("server %d: element %v duplicated: epochs %d and %d",
					id, e.ID, *at, ep.Number)
			}
			*at = ep.Number
			if e.Bogus {
				rep.addf("server %d: invalid (bogus) element %v committed in epoch %d",
					id, e.ID, ep.Number)
			}
			if cfg.Rejected != nil && cfg.Rejected.Has(e.ID) {
				rep.addf("server %d: admission-rejected element %v committed in epoch %d",
					id, e.ID, ep.Number)
				continue // already flagged; skip the fabrication double-report
			}
			if cfg.Injected != nil && !cfg.Injected.Has(e.ID) {
				rep.addf("server %d: fabricated element %v in epoch %d: never injected by the workload",
					id, e.ID, ep.Number)
			}
		}
	}
}

// mirrors reports whether snap retains exactly the reference's epochs, each
// the same elements at the same addresses: the same slice (one comparison —
// an epoch that is its batch's own slice, core's filter) or an equal sequence
// of element pointers (8-byte compares, no pointer chased). The same objects
// in the same places have the same ids, validity and membership in the
// injected and rejected sets: walkHistory would find here what it found there.
func mirrors(snap, ref core.Snapshot) bool {
	if snap.PrunedEpochs != ref.PrunedEpochs || len(snap.History) != len(ref.History) {
		return false
	}
	for i, ep := range snap.History {
		a, b := ep.Elements, ref.History[i].Elements
		if ep.Number != ref.History[i].Number || len(a) != len(b) ||
			len(a) > 0 && &a[0] != &b[0] && !slices.Equal(a, b) {
			return false
		}
	}
	return true
}

// checkSet compares the_set of one server with seen, the ids of its retained
// history — taken from the walk, never from the stamps of the server under
// test. Both differences are read off the two containers' page bitmaps
// (wire.Diff), not probed id by id.
func checkSet(rep *report, cfg Config, id wire.NodeID, snap core.Snapshot, seen *wire.IDMap[uint64]) {
	// the_set ∖ history: pruning drops settled epochs but never the_set, and
	// a forged state-sync snapshot is exactly an attempt to smuggle elements
	// in under the prune horizon where the per-epoch scan cannot see them.
	// Every set entry not accounted for by retained history must still be
	// valid and injected.
	for eid, e := range snap.TheSet.Without(seen) {
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
	// history ∖ the_set must be empty: an epoch is a subset of the_set.
	for eid, epoch := range snap.TheSet.Missing(seen) {
		rep.addf("server %d: element %v of epoch %d is not in the set", id, eid, epoch)
	}
}

// checkPrefix is epoch-prefix consistency of one server against the
// reference. Pairwise agreement follows transitively, and one reference
// keeps the pass O(n·history) instead of O(n²·history). Histories are aligned
// by absolute epoch number; where a pruned prefix leaves no epochs to
// compare, the servers' checkpoint chains stand in for them — seal points are
// deterministic, so correct servers must have sealed bit-identical
// checkpoints, and a chain entry's digest commits to every epoch hash in its
// range. A server that mirrors the reference holds the very same elements;
// only its hashes, which are its own, remain to compare.
func checkPrefix(rep *report, id wire.NodeID, snap core.Snapshot, ref wire.NodeID, refSnap core.Snapshot, mirrored bool) {
	// Checkpoint chains must agree entry for entry on the common prefix —
	// this is the only witness for epochs both sides pruned.
	cks, refCks := snap.Checkpoints, refSnap.Checkpoints
	for i := 0; i < len(cks) && i < len(refCks); i++ {
		// Content comparison (Same): seal heights are per-server prune
		// metadata and may legitimately trail under faults.
		if !cks[i].Same(refCks[i]) {
			rep.addf("servers %d and %d diverge: checkpoint %d is %+v vs %+v",
				id, ref, i+1, cks[i], refCks[i])
		}
	}
	// Retained-epoch overlap, aligned by absolute number.
	lo := max(snap.PrunedEpochs, refSnap.PrunedEpochs)
	hi := min(snap.PrunedEpochs+uint64(len(snap.History)), refSnap.PrunedEpochs+uint64(len(refSnap.History)))
	for num := lo + 1; num <= hi; num++ {
		ep := snap.History[num-1-snap.PrunedEpochs]
		re := refSnap.History[num-1-refSnap.PrunedEpochs]
		if !bytes.Equal(ep.Hash, re.Hash) {
			rep.addf("servers %d and %d diverge: epoch %d hashes differ", id, ref, num)
		}
		if mirrored {
			continue
		}
		if err := sameElements(ep, re); err != nil {
			rep.addf("servers %d and %d diverge at epoch %d: %w", id, ref, num, err)
		}
	}
	// Epochs this server retains past its own chain, where the reference
	// sealed further: the reference's later checkpoints witness them even
	// when it pruned them. Fold them on from this server's last checkpoint
	// and compare at each of those seal points they reach.
	total := snap.PrunedEpochs + uint64(len(snap.History))
	last := checkpoint.Checkpoint{Digest: checkpoint.Seed()}
	if len(cks) > 0 {
		last = cks[len(cks)-1]
	}
	if len(cks) >= len(refCks) || last.Epoch < snap.PrunedEpochs || last.Epoch > total {
		return
	}
	d, num := last.Digest, last.Epoch
	for _, rc := range refCks[len(cks):] {
		if rc.Epoch > total {
			break
		}
		for ; num < rc.Epoch; num++ {
			ep := snap.History[num-snap.PrunedEpochs]
			d = checkpoint.ChainEpoch(d, ep.Number, ep.Hash)
		}
		if d != rc.Digest {
			rep.addf("servers %d and %d diverge: epochs through %d do not fold to the reference's checkpoint %+v",
				id, ref, rc.Epoch, rc)
			return
		}
	}
}

// checkCheckpoints verifies one server's sealed checkpoint chain against
// its own retained state: ascending seal points, digests that recompute
// from retained epochs wherever the covered range is still present, and
// pruned-prefix bookkeeping that matches the horizon checkpoint.
func checkCheckpoints(rep *report, id wire.NodeID, snap core.Snapshot) {
	total := snap.PrunedEpochs + uint64(len(snap.History))
	prev := checkpoint.Checkpoint{Digest: checkpoint.Seed()}
	for i, ck := range snap.Checkpoints {
		if ck.Epoch <= prev.Epoch || ck.Height < prev.Height || ck.Elements < prev.Elements {
			rep.addf("server %d: checkpoint %d (%+v) does not extend %+v", id, i+1, ck, prev)
			prev = ck
			continue
		}
		if ck.Epoch > total {
			rep.addf("server %d: checkpoint %d seals epoch %d beyond history end %d",
				id, i+1, ck.Epoch, total)
			prev = ck
			continue
		}
		// Recompute digest and cumulative count when the covered range
		// (prev.Epoch, ck.Epoch] survives in retained history — always true
		// when checkpointing runs without pruning, so full chains get full
		// digest verification there.
		if prev.Epoch >= snap.PrunedEpochs {
			d, elems := prev.Digest, prev.Elements
			for e := prev.Epoch + 1; e <= ck.Epoch; e++ {
				ep := snap.History[e-1-snap.PrunedEpochs]
				d = checkpoint.ChainEpoch(d, ep.Number, ep.Hash)
				elems += uint64(len(ep.Elements))
			}
			if d != ck.Digest {
				rep.addf("server %d: checkpoint at epoch %d: digest does not recompute from history",
					id, ck.Epoch)
			}
			if elems != ck.Elements {
				rep.addf("server %d: checkpoint at epoch %d: cumulative elements %d, history holds %d",
					id, ck.Epoch, ck.Elements, elems)
			}
		}
		prev = ck
	}
	if snap.PrunedEpochs > 0 {
		found := false
		for _, ck := range snap.Checkpoints {
			if ck.Epoch == snap.PrunedEpochs {
				found = true
				if ck.Elements != snap.PrunedElements {
					rep.addf("server %d: pruned %d elements but horizon checkpoint at epoch %d holds %d",
						id, snap.PrunedElements, ck.Epoch, ck.Elements)
				}
			}
		}
		if !found {
			rep.addf("server %d: history pruned to epoch %d with no checkpoint sealing it",
				id, snap.PrunedEpochs)
		}
	}
}

// sameElements compares two epochs' element-id sequences (order matters:
// the epoch hash is order-sensitive).
func sameElements(a, b *core.Epoch) error {
	if len(a.Elements) != len(b.Elements) {
		return fmt.Errorf("%d vs %d elements", len(a.Elements), len(b.Elements))
	}
	for i := range a.Elements {
		if a.Elements[i].ID != b.Elements[i].ID {
			return fmt.Errorf("element %d: %v vs %v", i, a.Elements[i].ID, b.Elements[i].ID)
		}
	}
	return nil
}
