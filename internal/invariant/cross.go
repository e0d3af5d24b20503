package invariant

import (
	"repro/internal/shard"
	"repro/internal/wire"
)

// Cross-shard safety. Per-shard Check proves each shard is a correct
// Setchain; CheckCross proves the shards compose into one correct sharded
// set. The properties are the router's and the merge rule's contracts
// made executable:
//
//   - router completeness: every element committed by shard s is owned by
//     s under the deterministic router (no misrouting), so each id has
//     exactly one home;
//   - no cross-shard duplication: an element appears in at most one
//     shard's history (the global structure is still a set);
//   - no cross-shard fabrication: every committed element across all
//     shards was injected by the workload;
//   - superepoch integrity: the view's superepoch sequence is exactly the
//     deterministic merge of the per-shard histories — contiguous 1..K
//     numbering, the right parts in shard order, matching digests — so
//     dropping a shard's epoch, reordering superepochs or fabricating one
//     is a finite-state difference this check catches.
//
// Like Check, CheckCross must not be vacuously green: its mutation tests
// corrupt a merged ledger ten ways, one per violation it reports
// (cross-shard duplicate, dropped shard epoch, misrouted id, fabricated
// element, reordered superepochs, a shard count off, a prune no checkpoint
// seals, a retained history off its base, a superepoch count off, parts out
// of shard order) and assert each fails with its message. See DESIGN.md §10.

// CrossConfig scopes a cross-shard check.
type CrossConfig struct {
	// Shards is the deployment's shard count S the router ran with.
	Shards int
	// Injected is the set of element ids the workload's clients created
	// and servers accepted, across all shards. Nil skips the fabrication
	// check.
	Injected *wire.IDMap[struct{}]
}

// CheckCross verifies the cross-shard invariants against a deployment's
// aggregated view and returns the violations joined into one error, capped
// like Check's, or nil. The view's Histories are each shard observer's final
// history (per shard correctness is Check's job, run per shard); Supers is
// the merged sequence under test.
func CheckCross(v *shard.View, cfg CrossConfig) error {
	var rep report
	if len(v.Histories) != cfg.Shards {
		rep.addf("view has %d shard histories, deployment ran %d shards", len(v.Histories), cfg.Shards)
	}

	// Router completeness, cross-shard duplication and fabrication: one
	// pass over every shard's every epoch.
	var owner wire.IDMap[int]
	for s, hist := range v.Histories {
		for _, ep := range hist {
			for _, e := range ep.Elements {
				if want := shard.Route(e.ID, cfg.Shards); want != s {
					rep.addf("misrouted element %v: committed by shard %d, router owns it to shard %d",
						e.ID, s, want)
				}
				if prev, fresh := owner.Slot(e.ID); fresh {
					*prev = s
				} else if *prev != s {
					rep.addf("element %v duplicated across shards %d and %d", e.ID, *prev, s)
				}
				if cfg.Injected != nil && !cfg.Injected.Has(e.ID) {
					rep.addf("shard %d: fabricated element %v in epoch %d: never injected by the workload",
						s, e.ID, ep.Number)
				}
			}
		}
	}

	// Pruned-prefix coverage: when a shard's history was pruned under a
	// checkpoint horizon, the dropped epochs must be sealed by that shard's
	// checkpoint chain — the digests are the only remaining witness for
	// the prefix, and the per-shard Check has already verified them against
	// every correct server of the shard.
	for s, hist := range v.Histories {
		base := uint64(0)
		if s < len(v.Bases) {
			base = v.Bases[s]
		}
		if base == 0 {
			continue
		}
		sealed := uint64(0)
		if s < len(v.Checkpoints) {
			for _, ck := range v.Checkpoints[s] {
				if ck.Epoch > sealed {
					sealed = ck.Epoch
				}
			}
		}
		if sealed < base {
			rep.addf("shard %d: history pruned below epoch %d but checkpoints only seal through %d",
				s, base+1, sealed)
		}
		if len(hist) > 0 && hist[0].Number != base+1 {
			rep.addf("shard %d: retained history starts at epoch %d, base says %d",
				s, hist[0].Number, base+1)
		}
	}

	// Superepoch integrity: the claimed sequence must be exactly the
	// deterministic merge of the histories above the pruned bases.
	want := shard.MergeFrom(v.Histories, v.Bases)
	if len(v.Supers) != len(want) {
		rep.addf("superepoch sequence has %d entries, merge of the shard histories yields %d",
			len(v.Supers), len(want))
	}
	for i := 0; i < len(v.Supers) && i < len(want); i++ {
		got, exp := v.Supers[i], want[i]
		if got.Number != exp.Number {
			rep.addf("superepoch at position %d is numbered %d, want %d (sequence must be contiguous 1..K)",
				i, got.Number, exp.Number)
		}
		if len(got.Parts) != len(exp.Parts) {
			rep.addf("superepoch %d has %d shard parts, merge yields %d (a shard's epoch was dropped or invented)",
				exp.Number, len(got.Parts), len(exp.Parts))
			continue
		}
		for j := range got.Parts {
			if got.Parts[j].Shard != exp.Parts[j].Shard {
				rep.addf("superepoch %d part %d comes from shard %d, want shard %d (parts are shard-ascending)",
					exp.Number, j, got.Parts[j].Shard, exp.Parts[j].Shard)
			}
		}
		if got.Digest != exp.Digest {
			rep.addf("superepoch %d digest %016x does not match the merge's %016x",
				exp.Number, got.Digest, exp.Digest)
		}
	}

	return rep.err()
}
