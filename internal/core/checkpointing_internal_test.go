package core

import (
	"runtime"
	"testing"

	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// EagerSyncMaps is the copy of the membership index and the_set that every
// seal used to make, kept as the reference implementation
// TestLateServeEquivalence holds ServeSnapshot's serve-time filter against.
func (s *Server) EagerSyncMaps() (map[wire.ElementID]uint64, map[wire.ElementID]*wire.Element) {
	members := make(map[wire.ElementID]uint64)
	set := make(map[wire.ElementID]*wire.Element, s.elems.Len())
	for id, ent := range s.elems.m.All() {
		if ent.epoch != 0 {
			members[id] = ent.epoch
		}
		set[id] = ent.e
	}
	return members, set
}

// sealAllocBytes grows one server's state to the given number of elements
// through the real epoch and seal path — eight epochs, four seals — then
// returns the bytes allocated by one further seal covering two ten-element
// epochs. The chain is equally long whatever the element count, so the
// only thing that varies between two calls is how much state the seal
// happens on top of.
func sealAllocBytes(elements int) uint64 {
	d := Deploy(sim.New(1), 4, ledger.Config{Net: netsim.DefaultLANConfig()},
		Options{Algorithm: Hashchain, CheckpointInterval: 2, Prune: true}, nil)
	srv, cl := d.Servers[0], d.Clients[0]
	epochs := func(count, size int) {
		for i := 0; i < count; i++ {
			g := make([]*wire.Element, size)
			for j := range g {
				g[j] = cl.NewModeledElement(438)
			}
			srv.createEpoch(g)
		}
		srv.settled = srv.prunedEpochs + uint64(len(srv.history))
	}
	epochs(8, elements/8)
	srv.maybeSeal()
	epochs(2, 10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv.maybeSeal()
	runtime.ReadMemStats(&after)
	if len(srv.checkpoints) != 5 || srv.syncState.Last != srv.checkpoints[4] {
		panic("sealAllocBytes: the measured call did not seal exactly the fifth checkpoint")
	}
	return after.TotalAlloc - before.TotalAlloc
}

// A seal costs O(checkpoint interval), not O(state): ten times the set
// must not show in what one seal allocates. With the per-seal copy of
// the_set and the membership index this ratio was about ten (hundreds of
// KiB against MiB). TotalAlloc is process-wide, and whatever else allocates
// meanwhile (the collector, goroutines earlier tests left winding down)
// only ever adds, so each figure is the least of five measurements; the
// 4 KiB of slack keeps what survives that from deciding between two
// sub-KiB figures.
func TestSealAllocationIndependentOfSetSize(t *testing.T) {
	least := func(elements int) uint64 {
		m := sealAllocBytes(elements)
		for i := 1; i < 5; i++ {
			if b := sealAllocBytes(elements); b < m {
				m = b
			}
		}
		return m
	}
	small, large := least(2000), least(20000)
	t.Logf("one seal allocates %d B on 2,000 elements, %d B on 20,000", small, large)
	if large > 2*small+4096 {
		t.Fatalf("seal allocation grows with the set: %d B at 2,000 elements, %d B at 20,000", small, large)
	}
}
