// Package checkpoint defines the epoch-checkpoint subsystem's data model:
// a digest-sealed summary of the settled epoch prefix that every server
// can recompute independently, plus the state-sync snapshot a peer serves
// to a node too far behind for per-height certified blocks.
//
// A checkpoint is sealed every K settled epochs (K = the deployment's
// CheckpointInterval). "Settled" means the epoch has f+1 valid
// epoch-proofs on the ledger, so its content can never change; because
// proofs travel inside committed blocks and consolidation order is fixed
// by ledger order, the checkpoint's content — epoch number, cumulative
// element count and chained digest — is identical on every correct
// server. That agreement is what lets a server prune everything below the
// checkpoint and still prove, digest against digest, that its discarded
// prefix matched everyone else's (invariant.Check verifies exactly this).
// The seal Height is deliberately NOT part of that identity: it records
// where THIS server's prune horizon sits, and can trail by a block on a
// server whose batch recovery was deferred by a crashed peer (see Same).
//
// The digest chain reuses the superepoch-digest machinery (FNV-1a 64-bit
// with fixed-width framing, see internal/shard): checkpoint m's digest
// extends checkpoint m-1's by folding in each newly settled epoch's
// number and hash. Epoch hashes are already collision-resistant
// (setcrypto over the element list), so chaining their frame is enough to
// commit to the full prefix content.
package checkpoint

import "encoding/binary"

// FNV-1a 64-bit parameters — deliberately the same constants as the shard
// router and superepoch digests, so the whole repo has one digest idiom.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Seed returns the digest chain's starting value (the FNV-1a offset
// basis). Checkpoint 0 — "nothing settled" — has this digest.
func Seed() uint64 { return fnvOffset }

// Mix64 folds one fixed-width little-endian word into the digest.
func Mix64(h, v uint64) uint64 {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	return MixRaw(h, w[:])
}

// MixRaw folds raw bytes into the digest, byte by byte.
func MixRaw(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// MixBytes folds a length-prefixed byte string into the digest. The
// fixed-width length frame keeps concatenated fields unambiguous.
func MixBytes(h uint64, b []byte) uint64 {
	h = Mix64(h, uint64(len(b)))
	return MixRaw(h, b)
}

// ChainEpoch extends a checkpoint digest with one settled epoch: its
// number, then its length-framed hash. Folding epochs prev+1..m into
// checkpoint prev's digest yields checkpoint m's digest.
func ChainEpoch(h uint64, number uint64, hash []byte) uint64 {
	h = Mix64(h, number)
	return MixBytes(h, hash)
}

// Checkpoint summarizes the settled epoch prefix 1..Epoch. Every correct
// server of one Setchain instance seals checkpoints with identical
// content (Epoch, Elements, Digest — see Same); the seal Height is local.
type Checkpoint struct {
	// Epoch is the last settled epoch the checkpoint covers — always a
	// multiple of the deployment's checkpoint interval.
	Epoch uint64
	// Height is the ledger height whose processing settled epoch Epoch on
	// THIS server (the block during which its f+1-th proof was accepted).
	// Advisory: a server that had to defer a batch recovery past a failed
	// fetch — a crashed signer, say — extracts that batch's proofs a block
	// or two later than its peers, so Height may differ across correct
	// servers even though the settled content cannot.
	Height uint64
	// Elements is the cumulative element count over epochs 1..Epoch.
	Elements uint64
	// Digest chains (number, hash) of epochs 1..Epoch from Seed(), via
	// ChainEpoch. Two servers agree on a settled prefix iff they agree on
	// this digest.
	Digest uint64
}

// Same reports content equality: Epoch, Elements and Digest. Height is
// excluded on purpose — it is per-server prune metadata, not part of the
// agreed prefix — so Same is the comparison every cross-server check
// (invariant divergence, state-sync prefix verification) must use.
func (c Checkpoint) Same(o Checkpoint) bool {
	return c.Epoch == o.Epoch && c.Elements == o.Elements && c.Digest == o.Digest
}

// FoldChain commits to an entire checkpoint chain as one word: every
// entry's content identity — Epoch, Elements, Digest; Height is per-server
// and excluded, matching Same — folded in ascending order from Seed().
// This is the header commitment consensus binds into certified block
// headers (DESIGN.md §15): a proposer stamps its current fold, the 2f+1
// commit certificate covers it, and a state-syncing node accepts a peer's
// snapshot only if the offered chain folds to a certified value — so
// forging ANY chain entry, not just the latest, breaks the binding. An
// empty chain folds to Seed().
func FoldChain(chain []Checkpoint) uint64 {
	h := Seed()
	for _, c := range chain {
		h = FoldEntry(h, c)
	}
	return h
}

// FoldEntry extends a chain fold with one checkpoint. Sealing is
// append-only, so a server can maintain its current fold incrementally:
// FoldChain(chain[:m+1]) == FoldEntry(FoldChain(chain[:m]), chain[m]).
func FoldEntry(h uint64, c Checkpoint) uint64 {
	h = Mix64(h, c.Epoch)
	h = Mix64(h, c.Elements)
	return Mix64(h, c.Digest)
}

// EntryWireSize is the modeled wire size of one checkpoint-chain entry:
// its four 64-bit words.
const EntryWireSize = 32

// Snapshot is a state-sync payload: the serving peer's checkpoint chain
// plus its application state as of the latest checkpoint's seal height.
// The simulation ships Go references in State; Bytes models the wire size
// a real transfer would move, and is what the network simulator charges.
type Snapshot struct {
	// Last is the latest sealed checkpoint — the snapshot's identity.
	Last Checkpoint
	// Chain is every checkpoint the peer has sealed, ascending by epoch;
	// its final entry equals Last. The requester verifies its own chain is
	// a prefix of this one before installing.
	Chain []Checkpoint
	// State is the application half of the snapshot, opaque to consensus
	// (core.SyncState for a Setchain server).
	State any
	// Bytes is the modeled transfer size of the snapshot on the wire.
	Bytes int
}
