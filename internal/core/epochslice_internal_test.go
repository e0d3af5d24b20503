package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/wire"
)

// filter's contract: everything kept is the input itself, capped at its
// length; anything dropped is a fresh slice that shares nothing with it.
func TestFilterAliasesOrCopies(t *testing.T) {
	elems := make([]*wire.Element, 6, 10)
	for i := range elems {
		elems[i] = &wire.Element{ID: wire.NewElementID(1, uint64(i+1)), Size: 1}
	}
	all := filter(elems, func(*wire.Element) bool { return true })
	if len(all) != 6 || cap(all) != 6 || &all[0] != &elems[0] {
		t.Fatalf("nothing dropped: len %d cap %d, same array %v; want the input capped at its length",
			len(all), cap(all), &all[0] == &elems[0])
	}
	if grown := append(all, elems[0]); &grown[0] == &elems[0] || elems[:7][6] != nil {
		t.Fatal("an append to the result wrote into the input's array")
	}
	for drop := range elems {
		calls := 0
		got := filter(elems, func(e *wire.Element) bool { calls++; return e != elems[drop] })
		want := slices.Delete(slices.Clone(elems), drop, drop+1)
		if !slices.Equal(got, want) || calls != len(elems) {
			t.Fatalf("dropping element %d: got %d elements after %d calls, want the other %d in order after %d",
				drop, len(got), calls, len(want), len(elems))
		}
		if overlap(got, elems) {
			t.Fatalf("dropping element %d: the result shares memory with the input", drop)
		}
	}
	if none := filter(elems, func(*wire.Element) bool { return false }); len(none) != 0 {
		t.Fatalf("everything dropped: %d elements left", len(none))
	}
	if empty := filter(nil, func(*wire.Element) bool { return true }); len(empty) != 0 {
		t.Fatalf("nil input: %d elements", len(empty))
	}
}

// overlap reports whether a and b share a slot of one array, looking at b's
// whole capacity.
func overlap(a, b []*wire.Element) bool {
	b = b[:cap(b)]
	for i := range a {
		for j := range b {
			if &a[i] == &b[j] {
				return true
			}
		}
	}
	return false
}

// quiet deploys n servers of one algorithm whose ledger is never started.
func quiet(alg Algorithm, n int) *Deployment {
	return Deploy(sim.New(1), n, ledger.PaperConfig(),
		Options{Algorithm: alg, CollectorLimit: 100, F: (n - 1) / 2}, nil)
}

// A batch — or a block — that names one element twice commits it once: the
// second occurrence meets the first one's stamp. So does a second object
// under an id the batch already named; the first stands. Each algorithm's
// path is driven by hand with the content a Byzantine batcher or proposer
// could put on the ledger. (The filters used to probe the index for the
// whole batch before stamping any of it, and built a two-element epoch.)
func TestBatchNamingAnElementTwiceCommitsItOnce(t *testing.T) {
	newContent := func(d *Deployment) (content, want []*wire.Element) {
		a, b, c := d.Clients[1].NewModeledElement(100), d.Clients[1].NewModeledElement(100), d.Clients[2].NewModeledElement(100)
		bAgain := *b // the same id behind another object
		return []*wire.Element{a, a, b, c, &bAgain, a}, []*wire.Element{a, b, c}
	}
	check := func(t *testing.T, srv *Server, want []*wire.Element) {
		t.Helper()
		if len(srv.history) != 1 {
			t.Fatalf("%d epochs, want 1", len(srv.history))
		}
		if got := srv.history[0].Elements; !slices.Equal(got, want) {
			t.Fatalf("epoch holds %d elements, want the %d distinct ones, first object of each id, in order", len(got), len(want))
		}
		if srv.elems.Len() != len(want) {
			t.Fatalf("the_set holds %d elements, want %d", srv.elems.Len(), len(want))
		}
		for _, e := range want {
			if srv.elems.Epoch(e.ID) != 1 {
				t.Fatalf("element %v stamped with epoch %d, want 1", e.ID, srv.elems.Epoch(e.ID))
			}
		}
	}
	finalize := func(t *testing.T, d *Deployment, txs ...*wire.Tx) {
		t.Helper()
		srv := d.Servers[0]
		srv.FinalizeBlock(&wire.Block{Height: 1, Txs: txs})
		d.Sim.RunUntil(d.Sim.Now() + time.Minute)
		if srv.processing {
			t.Fatal("block still processing")
		}
	}

	t.Run("hashchain consolidation", func(t *testing.T) {
		d := quiet(Hashchain, 4)
		srv, h := d.Servers[0], d.Servers[0].alg.(*hashchainAlg)
		content, want := newContent(d)
		batch := &wire.Batch{Elements: content}
		hash := h.batchHash(batch)
		h.rec(hash).register(batch)
		finalize(t, d, signedHashBatch(d, 1, hash), signedHashBatch(d, 2, hash))
		check(t, srv, want)
	})
	t.Run("compresschain batch", func(t *testing.T) {
		d := quiet(Compresschain, 4)
		content, want := newContent(d)
		cb := &wire.CompressedBatch{Origin: 1, CompSize: 1, Original: &wire.Batch{Elements: content}}
		finalize(t, d, wire.NewCompressedTx(cb))
		check(t, d.Servers[0], want)
	})
	t.Run("vanilla block", func(t *testing.T) {
		d := quiet(Vanilla, 4)
		content, want := newContent(d)
		var txs []*wire.Tx
		for _, e := range content {
			txs = append(txs, wire.NewElementTx(e))
		}
		finalize(t, d, txs...)
		check(t, d.Servers[0], want)
	})
}

// drive runs a four-server deployment: 240 modeled elements added round-robin
// over six virtual seconds, then a drain and time to quiesce. workers > 1
// runs it partitioned, one event queue per server advanced by that many
// goroutines (DESIGN.md §12) — under -race that is the test that servers on
// different goroutines only ever read the slices they share. hook, if not
// nil, sees every transaction entering a mempool (sequential runs only).
func drive(t *testing.T, opts Options, workers int, byzantine *Behavior, hook func(*wire.Tx)) *Deployment {
	t.Helper()
	const n = 4
	opts.CollectorLimit, opts.F = 10, 1
	lcfg := ledger.PaperConfig()
	if hook != nil {
		lcfg.OnTxEnterMempool = func(_ wire.NodeID, tx *wire.Tx) { hook(tx) }
	}
	home := sim.New(1)
	run := home.RunUntil
	var world *sim.World
	if workers > 1 {
		world = sim.NewWorld(1, n, workers)
		lcfg.SimFor = func(id wire.NodeID) *sim.Simulator { return world.Part(int(id)) }
		home, run = world.Home(), world.RunUntil
	}
	d := Deploy(home, n, lcfg, opts, nil)
	if world != nil {
		world.SetLookahead(d.Ledger.Net.Lookahead)
	}
	if byzantine != nil {
		d.Servers[3].SetBehavior(byzantine)
	}
	d.Start()
	for i := 0; i < 240; i++ {
		srv, e := d.Servers[i%len(d.Servers)], d.Clients[i%len(d.Clients)].NewModeledElement(100)
		home.After(time.Duration(i)*25*time.Millisecond, func() {
			if err := srv.Add(e); err != nil {
				panic(err)
			}
		})
	}
	run(8 * time.Second)
	d.Drain()
	run(40 * time.Second)
	d.Stop()
	if len(d.Servers[0].history) == 0 {
		t.Fatal("the run created no epoch")
	}
	return d
}

// On a clean run an epoch IS its batch's slice — the same array on every
// server, not a copy per server — capped at its length, so that no append
// can ever write through it into the batch. Sequentially, and partitioned
// across goroutines.
func TestEpochsAliasBatch(t *testing.T) {
	for _, workers := range []int{1, 2} {
		name := "sequential"
		if workers > 1 {
			name = "partitioned"
		}
		t.Run(name, func(t *testing.T) {
			d := drive(t, Options{Algorithm: Hashchain}, workers, nil, nil)
			for _, srv := range d.Servers {
				batchOf := make(map[**wire.Element]*wire.Batch)
				for _, r := range srv.alg.(*hashchainAlg).recs {
					if b := r.batch; b != nil && len(b.Elements) > 0 {
						batchOf[&b.Elements[0]] = b
					}
				}
				if len(srv.history) != len(d.Servers[0].history) {
					t.Fatalf("server %d ends with %d epochs, server 0 with %d: tune the run",
						srv.id, len(srv.history), len(d.Servers[0].history))
				}
				for i, ep := range srv.history {
					b := batchOf[&ep.Elements[0]]
					if b == nil || len(ep.Elements) != len(b.Elements) {
						t.Fatalf("server %d epoch %d is not the slice of a batch in its records", srv.id, ep.Number)
					}
					if cap(ep.Elements) != len(ep.Elements) {
						t.Fatalf("server %d epoch %d: cap %d over len %d leaves an append room in the batch's array",
							srv.id, ep.Number, cap(ep.Elements), len(ep.Elements))
					}
					if &ep.Elements[0] != &d.Servers[0].history[i].Elements[0] {
						t.Fatalf("server %d epoch %d is another array than server 0's", srv.id, ep.Number)
					}
				}
			}
		})
	}
}

// What aliasing rests on: a batch's Elements never change once the batch is
// hashed, and an epoch that is not exactly a batch's slice shares no memory
// with any batch. Checked where something tries: a Byzantine server that
// pads its batches with bogus elements (dropped by every correct server, so
// their epochs of those batches are filtered copies), and one that answers
// batch requests with altered copies.
func TestBatchesStayFrozen(t *testing.T) {
	pads, alters := &Behavior{InjectBogusElements: 2}, &Behavior{ServeWrongBatch: true}
	// epochsShareOnlyWholeBatches checks every epoch of the correct servers
	// against the batches: exactly one of them, or disjoint from all.
	epochsShareOnlyWholeBatches := func(t *testing.T, d *Deployment, batches []*wire.Batch, wantCopies bool) {
		t.Helper()
		aliased, copied := 0, 0
		for _, srv := range d.Servers[:3] {
			for _, ep := range srv.history {
				whole := false
				for _, b := range batches {
					if len(b.Elements) > 0 && &b.Elements[0] == &ep.Elements[0] && len(b.Elements) == len(ep.Elements) {
						whole = true
					} else if overlap(ep.Elements, b.Elements) {
						t.Fatalf("server %d epoch %d shares memory with a batch it is not the whole of", srv.id, ep.Number)
					}
				}
				if whole {
					aliased++
				} else {
					copied++
				}
			}
		}
		if aliased == 0 || (copied > 0) != wantCopies {
			t.Fatalf("%d epochs are a batch's slice and %d are filtered copies; want filtered copies: %v", aliased, copied, wantCopies)
		}
	}

	for name, byz := range map[string]*Behavior{"hashchain, padded batches": pads, "hashchain, altered responses": alters} {
		t.Run(name, func(t *testing.T) {
			d := drive(t, Options{Algorithm: Hashchain, RequestTimeout: 500 * time.Millisecond}, 1, byz, nil)
			var batches []*wire.Batch
			for _, srv := range d.Servers {
				h := srv.alg.(*hashchainAlg)
				for _, r := range h.recs {
					b := r.batch
					if b == nil {
						continue
					}
					if !bytes.Equal(h.batchHash(b), r.hash) {
						t.Fatalf("server %d: a stored batch no longer hashes to its key", srv.id)
					}
					if !slices.Contains(batches, b) {
						batches = append(batches, b)
					}
				}
			}
			if byz == alters && d.Servers[3].HashchainStats().RequestsServed == 0 {
				t.Fatal("the Byzantine server was never asked for a batch")
			}
			epochsShareOnlyWholeBatches(t, d, batches, byz == pads)
		})
	}
	t.Run("compresschain", func(t *testing.T) {
		// A compressed batch has no hash to recompute: remember what each one
		// held when its transaction first entered a mempool (inside the
		// flush that made it) and compare at the end.
		var batches []*wire.Batch
		var held [][]*wire.Element
		d := drive(t, Options{Algorithm: Compresschain}, 1, pads, func(tx *wire.Tx) {
			if tx.Kind == wire.TxCompressedBatch && !slices.Contains(batches, tx.Compressed.Original) {
				batches = append(batches, tx.Compressed.Original)
				held = append(held, slices.Clone(tx.Compressed.Original.Elements))
			}
		})
		for i, b := range batches {
			if !slices.Equal(b.Elements, held[i]) {
				t.Fatalf("batch %d changed after it was flushed", i)
			}
		}
		epochsShareOnlyWholeBatches(t, d, batches, true)
	})
}
