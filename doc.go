// Package repro reproduces "Setchain Algorithms for Blockchain Scalability"
// (Karmegam et al., IPPS 2025): the Vanilla, Compresschain and Hashchain
// Setchain algorithms over a CometBFT-style BFT ledger, with the paper's
// full evaluation regenerated by cmd/setchain-bench.
//
// The public API lives in the setchain subpackage; DESIGN.md documents the
// architecture (including the performance engineering of the simulation
// kernel and the parallel study executor), EXPERIMENTS.md — generated from
// the internal/spec registry by cmd/specdoc — catalogs every named
// experiment, RESULTS.md — generated by cmd/setchain-report from the
// registry's reference values and the committed ARTIFACT_paper.json — is
// the measured-vs-paper fidelity report, and bench/ (its own module,
// `bash bench/run.sh`) measures the simulator's speed.
//
//go:generate go run ./cmd/specdoc -o EXPERIMENTS.md
//go:generate go run ./cmd/setchain-report -o RESULTS.md
package repro
