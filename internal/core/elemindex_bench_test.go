package core

import (
	"testing"

	"repro/internal/wire"
)

// BenchmarkElemIndex times one server's index over the 300,000 dense ids of
// the hash10k benchmark workload: adding each epoch's 500 one by one, each
// of another client, and then stamping them, the scattered worst case
// (add-stamp); adding them as one batch of one client's consecutive sequence
// numbers, as a server reverses a batch hash, and then stamping that batch
// (batch-stamp); and installing them all as a state-sync snapshot's member
// lists into an empty index, one stampEpoch per epoch as InstallSync does.
func BenchmarkElemIndex(b *testing.B) {
	const ids, perEpoch = 300_000, 500
	elems := make([]wire.Element, ids)
	for i := range elems {
		client, seq := wire.ClientID(i%perEpoch), uint64(i/perEpoch+1)
		elems[i] = wire.Element{ID: wire.NewElementID(client, seq), Client: client, Seq: seq, Size: 438}
	}
	epochs := make([][]*wire.Element, ids/perEpoch)
	for i := range elems {
		epochs[i/perEpoch] = append(epochs[i/perEpoch], &elems[i])
	}
	b.Run("add-stamp", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var x ElemIndex
			for n, g := range epochs {
				for _, e := range g {
					x.Add(e)
				}
				x.stampEpoch(uint64(n+1), g)
			}
		}
	})
	batches := make([][]*wire.Element, ids/perEpoch)
	consecutive := make([]wire.Element, ids)
	for i := range consecutive {
		seq := uint64(i + 1)
		consecutive[i] = wire.Element{ID: wire.NewElementID(0, seq), Seq: seq, Size: 438}
		batches[i/perEpoch] = append(batches[i/perEpoch], &consecutive[i])
	}
	b.Run("batch-stamp", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var x ElemIndex
			for n, g := range batches {
				x.addBatch(g)
				x.stampEpoch(uint64(n+1), g)
			}
		}
	})
	b.Run("install", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var x ElemIndex
			for n, g := range epochs {
				x.stampEpoch(uint64(n+1), g)
			}
		}
	})
}
