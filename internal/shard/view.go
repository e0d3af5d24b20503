package shard

import (
	"repro/internal/checkpoint"
	"repro/internal/core"
)

// The aggregated view. A single Setchain exposes one totally-ordered
// epoch history; a sharded world exposes S of them. The superepoch merge
// re-imposes one deterministic global order without inventing cross-shard
// consensus: superepoch i is "epoch i of every shard that got that far",
// shard-ascending. The rule needs no clocks and no communication — it is
// a pure function of the per-shard histories, so any observer (and the
// cross-shard checker) recomputes the identical sequence from the same
// final state, and a seeded run's superepoch sequence is reproducible
// bit for bit.

// Part is one shard's contribution to a superepoch.
type Part struct {
	// Shard is the contributing shard's index.
	Shard int
	// Epoch is that shard's epoch with Number == the superepoch's.
	Epoch *core.Epoch
}

// Superepoch is one entry of the merged cross-shard history.
type Superepoch struct {
	// Number is the 1-based superepoch number; parts all carry the same
	// per-shard epoch number.
	Number uint64
	// Parts holds the contributing shards in ascending shard order. Shards
	// whose history is shorter than Number are absent.
	Parts []Part
	// Digest chains the superepoch's identity: number, contributing shard
	// indices and their epoch hashes (see superDigest). Two views agree on
	// a superepoch iff they agree on every contributing epoch.
	Digest uint64
}

// View is the cross-shard aggregate over the per-shard observer
// histories: the input streams and their superepoch merge. The checker
// (invariant.CheckCross) treats the fields as the claim under test, so
// tests corrupt them freely.
type View struct {
	// Histories holds each shard observer's epoch history, indexed by
	// shard.
	Histories [][]*core.Epoch
	// Bases holds each shard's pruned-epoch base: shard k's history starts
	// at epoch Bases[k]+1 (all zero — and possibly nil — when no shard has
	// pruned).
	Bases []uint64
	// Checkpoints holds each shard observer's sealed checkpoint chain
	// (empty per shard when checkpointing is off). The cross-shard checker
	// uses it to account for the pruned prefix below Bases.
	Checkpoints [][]checkpoint.Checkpoint
	// Supers is the merged superepoch sequence, numbered contiguously from
	// max(Bases)+1 up to the longest shard history's last epoch (1..K when
	// nothing is pruned).
	Supers []*Superepoch
}

// NewPrunedView merges per-shard histories whose settled prefixes may have
// been pruned below per-shard checkpoint horizons; nil bases and chains
// describe a deployment that never checkpointed.
func NewPrunedView(histories [][]*core.Epoch, bases []uint64, cks [][]checkpoint.Checkpoint) *View {
	return &View{
		Histories:   histories,
		Bases:       bases,
		Checkpoints: cks,
		Supers:      MergeFrom(histories, bases),
	}
}

// MergeFrom builds the superepoch sequence from histories with per-shard
// pruned-epoch bases: shard k's history[j] is epoch bases[k]+j+1, and
// superepoch i collects epoch i of every shard that has one, in shard
// order, sealed under a digest. Superepochs are built for every number
// above max(bases) — below that, at least one shard's part has been pruned
// and the prefix is covered by checkpoint digests instead. A nil (or
// all-zero) bases merges from epoch 1.
func MergeFrom(histories [][]*core.Epoch, bases []uint64) []*Superepoch {
	baseOf := func(k int) uint64 {
		if k < len(bases) {
			return bases[k]
		}
		return 0
	}
	start, longest := uint64(0), uint64(0)
	for k, h := range histories {
		b := baseOf(k)
		if b > start {
			start = b
		}
		if total := b + uint64(len(h)); total > longest {
			longest = total
		}
	}
	if longest < start {
		longest = start
	}
	supers := make([]*Superepoch, 0, longest-start)
	for i := start + 1; i <= longest; i++ {
		se := &Superepoch{Number: i}
		for k, h := range histories {
			if idx := i - baseOf(k); idx >= 1 && idx <= uint64(len(h)) {
				se.Parts = append(se.Parts, Part{Shard: k, Epoch: h[idx-1]})
			}
		}
		se.Digest = superDigest(se.Number, se.Parts)
		supers = append(supers, se)
	}
	return supers
}

// superDigest hashes a superepoch's identity: its number, then each
// part's shard index, epoch number and epoch hash, FNV-1a chained in part
// order via the shared checkpoint mixers. Fixed-width framing keeps the
// encoding unambiguous.
func superDigest(number uint64, parts []Part) uint64 {
	h := checkpoint.Seed()
	h = checkpoint.Mix64(h, number)
	for _, p := range parts {
		h = checkpoint.Mix64(h, uint64(p.Shard))
		h = checkpoint.Mix64(h, p.Epoch.Number)
		h = checkpoint.MixBytes(h, p.Epoch.Hash)
	}
	return h
}

// Digests returns the superepoch digest sequence — the compact fingerprint
// determinism tests pin ("same seed ⇒ same superepoch sequence").
func (v *View) Digests() []uint64 {
	out := make([]uint64, len(v.Supers))
	for i, se := range v.Supers {
		out[i] = se.Digest
	}
	return out
}
