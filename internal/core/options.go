// Package core implements the paper's contribution: the three Setchain
// algorithms — Vanilla, Compresschain and Hashchain (§3, Appendix B) —
// as replicated applications over the block-based ledger, together with
// epoch-proofs, the batch collector pipeline, Hashchain's hash-reversal
// protocol with f+1 consolidation, and the client-side verification logic.
//
// See DESIGN.md §1 (the Full/Modeled fidelity modes) and §3 (where the
// implementation deliberately refines the paper's pseudocode).
package core

import "time"

// Algorithm selects which of the paper's three implementations a server
// runs.
type Algorithm int

// The paper's algorithms in order of presentation.
const (
	// Vanilla appends every element as its own ledger transaction; each
	// block's fresh valid elements form one epoch.
	Vanilla Algorithm = iota
	// Compresschain batches elements in a collector and appends each
	// compressed batch as one transaction; each batch becomes one epoch.
	Compresschain
	// Hashchain appends only the signed 139-byte hash of each batch; a
	// batch consolidates into an epoch after f+1 servers sign its hash.
	Hashchain
)

// String names the algorithm as the paper does.
func (a Algorithm) String() string {
	switch a {
	case Vanilla:
		return "Vanilla"
	case Compresschain:
		return "Compresschain"
	case Hashchain:
		return "Hashchain"
	default:
		return "unknown"
	}
}

// Mode selects byte-path fidelity.
type Mode int

// Execution modes.
const (
	// Modeled carries exact wire sizes but no payload bytes; compression
	// uses the paper's measured ratios and crypto CPU cost is charged to
	// the simulated CPU via the CostModel. Used for large evaluations.
	Modeled Mode = iota
	// Full carries real payloads through real DEFLATE, real ed25519 and
	// real SHA-512-shaped hashing. Used by correctness tests and examples.
	Full
)

// CostModel charges realistic CPU time for the work a real server would
// do, to the per-server serial CPU resource. The defaults are calibrated so
// the simulation reproduces the paper's measured ceilings — most notably
// Hashchain's ~20k el/s limit, which the paper attributes to the
// hash-reversal path (every server fetches and validates every batch).
// The zero CostModel charges nothing (pure-logic unit tests).
type CostModel struct {
	// VerifyElement is per-element signature verification (ed25519 verify
	// of a ~438-byte message is ~45µs on the paper's Xeon class hardware).
	VerifyElement time.Duration
	// PerElement is per-element bookkeeping (dedup lookups, set inserts,
	// epoch assembly) along the full pipeline.
	PerElement time.Duration
	// SignCost is one ed25519 signature generation.
	SignCost time.Duration
	// VerifySig is one batch-level signature verification (hash-batches,
	// epoch-proofs, consensus artifacts).
	VerifySig time.Duration
	// HashPerByte is SHA-512 throughput (~3 ns/B single-threaded).
	HashPerByte time.Duration
	// CompressPerByte / DecompressPerByte model Brotli-class codecs.
	CompressPerByte   time.Duration
	DecompressPerByte time.Duration
	// PerBatch is fixed per-batch handling (framing, RPC dispatch, map
	// shuffling) on every batch-touching operation.
	PerBatch time.Duration
}

// PaperCostModel returns costs calibrated to the paper's platform (Intel
// Xeon E-2186G @3.8GHz). With these values a single server core saturates
// at ≈1/(VerifyElement+PerElement) ≈ 20k el/s with validation on, and at
// ≈1/PerElement ≈ 160k el/s without — the two ceilings Fig. 2 (left)
// reports (20,061 and 133,882 el/s average over the first 50 s).
func PaperCostModel() CostModel {
	return CostModel{
		VerifyElement:     34 * time.Microsecond,
		PerElement:        2 * time.Microsecond,
		SignCost:          20 * time.Microsecond,
		VerifySig:         30 * time.Microsecond,
		HashPerByte:       3 * time.Nanosecond,
		CompressPerByte:   30 * time.Nanosecond,
		DecompressPerByte: 10 * time.Nanosecond,
		PerBatch:          100 * time.Microsecond,
	}
}

// Options configures a Setchain server. Deploy uses every field as given:
// the entry points (spec.WithDefaults and harness.deployConfig,
// setchain.Config) decide them.
type Options struct {
	// Algorithm selects Vanilla, Compresschain or Hashchain.
	Algorithm Algorithm
	// Mode selects Full (compressor.Deflate) or Modeled
	// (compressor.CompressedSize) byte paths.
	Mode Mode
	// Light reproduces the paper's Fig. 2 ablation by charging nothing for
	// the expensive half of the pipeline: for Hashchain, hash reversal (the
	// origin's hash-batch carries its batch, so no server requests one); for
	// Compresschain, decompression. Element validation is free in both, but
	// invalid elements are still dropped. Hashchain Light also skips the
	// ledger-time check of hash-batch signatures, though it still pays the
	// modeled charge for it. Ignored by Vanilla.
	Light bool
	// CollectorLimit is the paper's collector size c (elements per batch;
	// 100 or 500 in the evaluation), positive. Unused by Vanilla.
	CollectorLimit int
	// Costs charges simulated CPU time; zero charges nothing.
	Costs CostModel
	// F is the Setchain fault bound (max Byzantine servers, f < n/2);
	// commit and consolidation both use f+1.
	F int
	// CheckpointInterval seals a digest checkpoint every this many settled
	// epochs (internal/checkpoint); 0 disables checkpointing. All servers
	// of one instance must agree on the interval — seal points are part of
	// the replicated state machine.
	CheckpointInterval int
	// Prune drops settled state below each new checkpoint: server epoch
	// history, the ledger's per-height blocks and commit certificates, and
	// mempool tombstones. Requires CheckpointInterval > 0. The set itself
	// (the_set and the id→epoch membership index) is never pruned — it is
	// the data structure Setchain replicates.
	Prune bool
}

// MaxFaulty is the fault bound F a deployment of n servers runs with: the
// largest f < n/2.
func MaxFaulty(n int) int { return (n - 1) / 2 }

// Behavior injects Byzantine behavior into a server. A nil *Behavior (or
// the zero value) is a correct server. All hooks are optional.
type Behavior struct {
	// RefuseServe makes the server ignore batch requests for which it
	// returns true (the Byzantine signer that "refuses to provide the
	// batch that corresponds to the hash").
	RefuseServe func(to int, hash []byte) bool
	// ServeWrongBatch makes responses carry a corrupted batch whose hash
	// does not match (detected by requesters).
	ServeWrongBatch bool
	// CorruptProofs makes the server sign garbage epoch hashes, producing
	// invalid epoch-proofs that correct servers and clients must reject.
	CorruptProofs bool
	// InjectBogusElements adds this many invalid elements to every batch
	// the server creates (Compresschain/Hashchain) — the attack the
	// paper's validation in FinalizeBlock exists to filter.
	InjectBogusElements int
	// ForgeSnapshot makes the server corrupt every state-sync snapshot it
	// serves — a fabricated extra checkpoint smuggling bogus elements past
	// the requester's local knowledge, attached to the legitimate commit
	// certificate. Caught by the certified-header fold check
	// (DESIGN.md §15); installs cleanly if that check is sabotaged.
	ForgeSnapshot bool
}
