// Package batchstore holds Hashchain's hash-reversal substrate: the
// request/response messages servers exchange to recover a batch from its
// hash (Request_batch), and Store, the hash→batch oracle that Hashchain
// Light's servers share.
//
// Hash reversal is the distributed service the paper identifies as
// Hashchain's bottleneck: every server must obtain every batch to validate
// it before co-signing its hash, so batches flow origin → n-1 peers for
// every collector flush. A server's own hash→batch map is its batch records
// (core's hashchainAlg); the Light ablation (paper Fig. 2) removes hash
// reversal by reading one shared Store instead.
//
// See DESIGN.md §3 (algorithm refinements).
package batchstore

import (
	"repro/internal/wire"
)

// Store holds batches by hash.
type Store struct {
	byHash map[wire.Digest]*wire.Batch
}

// New returns an empty store.
func New() *Store {
	return &Store{byHash: make(map[wire.Digest]*wire.Batch)}
}

// Register saves a batch under its hash (Register_batch in the paper).
// Re-registering the same hash is a no-op: the first batch stands.
func (s *Store) Register(hash []byte, b *wire.Batch) {
	key := wire.DigestOf(hash)
	if _, ok := s.byHash[key]; !ok {
		s.byHash[key] = b
	}
}

// Get returns the batch for a hash, or nil (the paper's
// hash_to_batch[h] lookup).
func (s *Store) Get(hash []byte) *wire.Batch {
	return s.byHash[wire.DigestOf(hash)]
}

// Request asks the receiver for the batch whose hash is Hash. ReqID lets
// the requester correlate the response and detect late replies.
type Request struct {
	Hash  []byte
	ReqID uint64
}

// RequestWireSize is the bytes a batch request occupies on the network.
const RequestWireSize = 80

// Response carries the batch (or Found=false if the receiver does not have
// it — a Byzantine server may also simply never respond).
type Response struct {
	Hash  []byte
	ReqID uint64
	Found bool
	Batch *wire.Batch
}

// ResponseWireSize returns the response's network footprint.
func (r *Response) ResponseWireSize() int {
	if !r.Found || r.Batch == nil {
		return 96
	}
	return 96 + r.Batch.RawSize()
}
