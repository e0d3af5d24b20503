package mempool

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/wire"
)

// oracle is what the pool is checked against: the pooled transactions as a
// plain slice in admission order and the index as a map of three states.
// No sequence numbers, no cursor, no slide — removal deletes from the
// slice. The deferred queue of the delay policy is a slice too.
type oracle struct {
	cfg      Config
	pool     []*wire.Tx
	state    map[wire.TxKey]int8 // absent 0, pooled 1, tombstone 2
	bytes    int
	log      []oracleBatch
	deferred []deferredTx

	admitted, rejected, dropped, duplicate uint64
	admRejected, deferredTotal, expired    uint64

	everPruned map[wire.TxKey]bool
	readmitted int // admissions of a key an earlier prune had dropped
	keptLive   int // logged keys a prune found pooled again and left alone
}

// oracleBatch is the oracle's log entry for one committed block: its own
// copy of the keys, where the pool keeps the caller's slice.
type oracleBatch struct {
	height uint64
	keys   []wire.TxKey
}

// caps returns the pool's caps: the admission block's, or the paper's.
func (o *oracle) caps() (maxTxs, maxBytes int) {
	return cmp.Or(o.cfg.Admission.MaxTxs, MaxTxs), cmp.Or(o.cfg.Admission.MaxBytes, MaxBytes)
}

func (o *oracle) saturated() bool {
	a := o.cfg.Admission
	maxTxs, maxBytes := o.caps()
	return a.Policy != "" && (float64(len(o.pool)) >= a.Watermark*float64(maxTxs) ||
		float64(o.bytes) >= a.Watermark*float64(maxBytes))
}

func (o *oracle) addTx(tx *wire.Tx, now time.Duration) bool {
	if o.cfg.Admission.Policy != spec.AdmissionDelay || !o.saturated() {
		return o.add(tx)
	}
	if len(o.deferred) >= o.cfg.Admission.MaxDeferred {
		o.admRejected++
		return false
	}
	o.deferred = append(o.deferred, deferredTx{tx: tx, deadline: now + o.cfg.Admission.MaxDelay.Std()})
	o.deferredTotal++
	return true
}

func (o *oracle) add(tx *wire.Tx) bool {
	key := tx.MapKey()
	maxTxs, maxBytes := o.caps()
	switch {
	case o.state[key] != 0:
		o.duplicate++
	case !modelCheck(tx):
		o.rejected++
	case len(o.pool) >= maxTxs || o.bytes+tx.WireSize() > maxBytes:
		o.dropped++
	default:
		o.pool = append(o.pool, tx)
		o.state[key] = 1
		o.bytes += tx.WireSize()
		o.admitted++
		if o.everPruned[key] {
			o.readmitted++
		}
		return true
	}
	return false
}

func (o *oracle) reap(maxBytes int) []*wire.Tx {
	var out []*wire.Tx
	total := 0
	for _, tx := range o.pool {
		if total+tx.WireSize() > maxBytes {
			break
		}
		out = append(out, tx)
		total += tx.WireSize()
	}
	return out
}

func (o *oracle) remove(height uint64, txs []*wire.Tx, now time.Duration) {
	var keys []wire.TxKey
	for _, tx := range txs {
		key := tx.MapKey()
		if o.state[key] == 1 {
			i := slices.IndexFunc(o.pool, func(p *wire.Tx) bool { return p.MapKey() == key })
			o.bytes -= o.pool[i].WireSize()
			o.pool = slices.Delete(o.pool, i, i+1)
		}
		o.state[key] = 2
		keys = append(keys, key)
	}
	if len(keys) > 0 {
		o.log = append(o.log, oracleBatch{height: height, keys: keys})
	}
	for len(o.deferred) > 0 && !o.saturated() {
		d := o.deferred[0]
		o.deferred = o.deferred[1:]
		if d.deadline < now {
			o.expired++
			continue
		}
		o.add(d.tx)
	}
}

func (o *oracle) prune(height uint64) {
	for len(o.log) > 0 && o.log[0].height <= height {
		for _, key := range o.log[0].keys {
			switch o.state[key] {
			case 1:
				o.keptLive++
			case 2:
				delete(o.state, key)
				o.everPruned[key] = true
			}
		}
		o.log = o.log[1:]
	}
}

func (o *oracle) advance(now time.Duration) {
	for len(o.deferred) > 0 && o.deferred[0].deadline <= now {
		o.expired++
		o.deferred = o.deferred[1:]
	}
}

// modelCheck is the CheckTx both sides run: it refuses one size class, so
// the rejected counter moves.
func modelCheck(tx *wire.Tx) bool { return tx.WireSize()%11 != 0 }

// modelTx builds the i-th transaction of the driver's universe: all four
// kinds, sizes from 50 to 449 bytes, every key distinct, every other group
// of four through the wire constructors (key built once and carried) and the
// rest by literal (key built on each MapKey).
func modelTx(i int) *wire.Tx {
	size := 50 + i*37%400
	var tx *wire.Tx
	switch i % 4 {
	case 0:
		tx = elemTx(i, size)
	case 1:
		tx = &wire.Tx{Kind: wire.TxProof, Proof: &wire.EpochProof{Epoch: uint64(i), Signer: wire.NodeID(i % 5)}}
	case 2:
		tx = &wire.Tx{Kind: wire.TxCompressedBatch,
			Compressed: &wire.CompressedBatch{Origin: wire.NodeID(i % 3), Seq: uint64(i), CompSize: size}}
	default:
		hash := make([]byte, 64)
		hash[0], hash[1], hash[2] = byte(i), byte(i>>8), byte(i>>16)
		tx = &wire.Tx{Kind: wire.TxHashBatch, HashBatch: &wire.HashBatch{Hash: hash, Signer: wire.NodeID(i % 4)}}
	}
	if i/4%2 == 1 {
		return twinTx(tx, true)
	}
	return tx
}

// twinTx returns a second transaction with tx's payload, so the same
// identity: through the constructor of its kind, or as a literal.
func twinTx(tx *wire.Tx, constructed bool) *wire.Tx {
	if !constructed {
		return &wire.Tx{Kind: tx.Kind, Element: tx.Element, Proof: tx.Proof, Compressed: tx.Compressed, HashBatch: tx.HashBatch}
	}
	switch tx.Kind {
	case wire.TxElement:
		return wire.NewElementTx(tx.Element)
	case wire.TxProof:
		return wire.NewProofTx(tx.Proof)
	case wire.TxCompressedBatch:
		return wire.NewCompressedTx(tx.Compressed)
	default:
		return wire.NewHashBatchTx(tx.HashBatch)
	}
}

// modelConfigs are the pools the driver runs against: the paper's caps
// (nothing but the index and the ring), caps small enough to drop, and the
// delay admission policy with a short deferred queue.
var modelConfigs = []Config{
	PaperConfig(),
	{Admission: spec.AdmissionSpec{MaxTxs: 96, MaxBytes: 24_000}},
	{Admission: spec.AdmissionSpec{MaxTxs: 64, MaxBytes: 1 << 20,
		Policy: spec.AdmissionDelay, Watermark: 0.75, MaxDelay: spec.Duration(2 * time.Second), MaxDeferred: 8}},
}

// nearPageEnd is where a driver asked to start late starts its pools'
// sequence numbers and its table's ordinals: a few short of a page
// boundary, as if every one below had been handed out and let go, so that
// the windows of a short sequence cross the boundary too.
const nearPageEnd = 3*pageSize - 12

// startLate starts keys and the pools that use it at nearPageEnd, before
// their first admission.
func startLate(keys *Keys, pools ...*Mempool) {
	keys.lo, keys.next = nearPageEnd, nearPageEnd
	for _, p := range pools {
		p.head, p.next = nearPageEnd, nearPageEnd
	}
}

// modelCoverage counts what runs of the driver reached, so the seeded
// test can refuse to pass on sequences whose ring, states or table never
// moved their front onto a later page.
type modelCoverage struct {
	readmitted, keptLive, holes, deferred, expired, twins int
	pages                                                 [3]int // see movedPages
}

// frontPages returns the pages the fronts of p's ring, p's states and its
// table are on.
func frontPages(p *Mempool) [3]int {
	return [3]int{p.head >> pageShift, int(p.entLo) >> pageShift, p.keys.lo >> pageShift}
}

// movedPages counts in n each of those fronts that moved onto a later page
// since they were on was.
func movedPages(p *Mempool, was [3]int, n *[3]int) {
	for i, now := range frontPages(p) {
		if now > was[i] {
			n[i]++
		}
	}
}

// runModel interprets data as a sequence of pool operations, applies each
// to a Mempool and to the oracle, and compares everything the pool exposes
// after every step; late starts the pool at nearPageEnd. What the sequence
// reached is added to cov.
func runModel(t *testing.T, cfg Config, late bool, data []byte, cov *modelCoverage) {
	t.Helper()
	s := sim.New(1)
	p := New(0, s, nil, nil, cfg, modelCheck, nil)
	if late {
		startLate(p.keys, p)
	}
	o := &oracle{cfg: p.cfg, state: make(map[wire.TxKey]int8), everPruned: make(map[wire.TxKey]bool)}
	var (
		universe []*wire.Tx
		touched  []*wire.Tx
		last     []*wire.Tx // the previous committed block
		height   uint64
		pos      int
	)
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	// fresh returns a transaction never offered before; seen returns one
	// from the last committed block or one of the last 96 offered — pooled,
	// committed, pruned or refused. Recent ones, so that the same key comes
	// back often enough to be committed at two heights and re-admitted
	// between two prunes. One time in five it is not that transaction but a
	// twin of it, so a key carried in a Tx and the same key built from a
	// literal's payload have to find each other in the index. One input byte
	// per old transaction and two per burst of new ones keep sequences that
	// slide the ring short.
	fresh := func() *wire.Tx {
		tx := modelTx(len(universe))
		universe = append(universe, tx)
		touched = append(touched, tx)
		return tx
	}
	seen := func() *wire.Tx {
		if len(universe) == 0 {
			return fresh()
		}
		c := next()
		tx := universe[len(universe)-1-c/2%min(len(universe), 96)]
		if c%2 == 0 && len(last) > 0 {
			tx = last[c/2%len(last)]
		}
		if c%5 == 0 {
			tx = twinTx(tx, c%10 == 0)
			cov.twins++
		}
		touched = append(touched, tx)
		return tx
	}
	addTx := func(step int, tx *wire.Tx) {
		if got, want := p.AddTx(tx), o.addTx(tx, s.Now()); got != want {
			t.Fatalf("step %d: AddTx = %v, oracle %v", step, got, want)
		}
	}

	for step := 0; pos < len(data); step++ {
		touched = touched[:0]
		pages := frontPages(p)
		switch next() % 8 {
		case 0:
			for n := next()%32 + 1; n > 0; n-- {
				addTx(step, fresh())
			}
		case 1:
			for n := next()%8 + 1; n > 0; n-- {
				addTx(step, seen())
			}
		case 2:
			msg := &GossipMsg{}
			for n := next() % 16; n > 0; n-- {
				msg.Txs = append(msg.Txs, fresh())
			}
			for n := next() % 8; n > 0; n-- {
				msg.Txs = append(msg.Txs, seen())
			}
			p.ReceiveGossip(msg)
			for _, tx := range msg.Txs {
				o.add(tx)
			}
		case 3, 4:
			pooled := p.Reap(1 << 30)
			var block []*wire.Tx
			switch mode := next() % 4; {
			case mode == 0 || len(pooled) == 0: // the front of the pool, in order
				block = pooled[:min(next()%64, len(pooled))]
			case mode == 1: // what a proposer would reap
				block = p.Reap(next() * 64)
			case mode == 2: // every k-th pooled tx from an offset, newest first
				k := next()%5 + 2
				for i := next() % len(pooled); i < len(pooled); i += k {
					block = append(block, pooled[i])
				}
				slices.Reverse(block)
				cov.holes++
			default: // a never-seen tx, long-committed ones, some of the last block again, one pooled tx twice
				block = append(block, fresh())
				for n := next() % 6; n > 0; n-- {
					block = append(block, seen())
				}
				block = append(block, last[:min(next()%4, len(last))]...)
				twice := pooled[next()%len(pooled)]
				block = append(block, twice, twice)
			}
			touched = append(touched, block...)
			last = block
			height++
			p.RemoveCommitted(height, block)
			o.remove(height, block, s.Now())
		case 5:
			h := height - min(height, uint64(next()%4))
			p.PruneTombstonesBelow(h)
			o.prune(h)
		case 6:
			s.RunUntil(s.Now() + time.Duration(next()%8)*250*time.Millisecond)
			o.advance(s.Now())
		case 7:
			budget := next() * 32
			if got, want := p.Reap(budget), o.reap(budget); !slices.Equal(got, want) {
				t.Fatalf("step %d: Reap(%d) returned %d txs, oracle %d (or a different order)", step, budget, len(got), len(want))
			}
		}
		movedPages(p, pages, &cov.pages)
		compareModel(t, step, p, o, touched)
		if p.keys.Len() != len(o.state) {
			t.Fatalf("step %d: the pool's table holds %d keys, the oracle %d", step, p.keys.Len(), len(o.state))
		}
		if err := p.keys.Verify([]*Mempool{p}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	compareModel(t, -1, p, o, universe)
	cov.readmitted += o.readmitted
	cov.keptLive += o.keptLive
	cov.deferred += int(o.deferredTotal)
	cov.expired += int(o.expired)
}

func compareModel(t *testing.T, step int, p *Mempool, o *oracle, touched []*wire.Tx) {
	t.Helper()
	if got := p.Reap(1 << 30); !slices.Equal(got, o.pool) {
		t.Fatalf("step %d: Reap returned %d txs, oracle pools %d (or a different order)", step, len(got), len(o.pool))
	}
	if p.Size() != len(o.pool) || p.bytes != o.bytes {
		t.Fatalf("step %d: Size/Bytes = %d/%d, oracle %d/%d", step, p.Size(), p.bytes, len(o.pool), o.bytes)
	}
	if got, want := p.TombstonedKeys(), len(o.state)-len(o.pool); got != want {
		t.Fatalf("step %d: TombstonedKeys = %d, oracle %d", step, got, want)
	}
	a, r, d, dup := p.Stats()
	if a != o.admitted || r != o.rejected || d != o.dropped || dup != o.duplicate {
		t.Fatalf("step %d: Stats = %d/%d/%d/%d, oracle %d/%d/%d/%d", step, a, r, d, dup,
			o.admitted, o.rejected, o.dropped, o.duplicate)
	}
	ar, ad, ae := p.AdmissionStats()
	if len(p.deferred) != len(o.deferred) || ar != o.admRejected || ad != o.deferredTotal || ae != o.expired {
		t.Fatalf("step %d: deferred len %d stats %d/%d/%d, oracle len %d stats %d/%d/%d", step,
			len(p.deferred), ar, ad, ae, len(o.deferred), o.admRejected, o.deferredTotal, o.expired)
	}
	for _, tx := range touched {
		if got, want := p.Has(tx.MapKey()), o.state[tx.MapKey()] == 1; got != want {
			t.Fatalf("step %d: Has(%x) = %v, oracle %v", step, tx.AppendKey(nil), got, want)
		}
	}
}

// modelStream is the seeded random operation sequence of one model run.
func modelStream(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// The ring and the tombstoned index against the oracle, on seeded random
// sequences: commits out of admission order, holes in the middle of the
// ring, blocks that list a tx twice or list txs the pool never saw,
// pruning, re-admission of pruned keys, drops at the caps and the delay
// policy's deferred queue. Every other sequence starts near a page
// boundary.
func TestMempoolModel(t *testing.T) {
	var cov modelCoverage
	for _, cfg := range modelConfigs {
		for seed := int64(1); seed <= 6; seed++ {
			runModel(t, cfg, seed%2 == 0, modelStream(seed, 3000), &cov)
		}
	}
	t.Logf("reached: %+v", cov)
	if slices.Min(cov.pages[:]) < 3 || cov.readmitted == 0 || cov.keptLive == 0 || cov.holes == 0 || cov.deferred == 0 || cov.expired == 0 || cov.twins == 0 {
		t.Errorf("the sequences no longer reach every case the model is for: %+v", cov)
	}
}

// The seed streams are short on purpose: the fuzzing engine minimizes every
// input that reaches new coverage, at a cost that grows faster than the
// input's length. cfg picks the configuration and, past the first
// len(modelConfigs), a late start, whose windows 300 bytes take across a
// page boundary.
func FuzzMempoolModel(f *testing.F) {
	for i := range 2 * len(modelConfigs) {
		f.Add(uint8(i), modelStream(int64(100+i), 300))
	}
	f.Fuzz(func(t *testing.T, cfg uint8, data []byte) {
		n := len(modelConfigs)
		runModel(t, modelConfigs[int(cfg)%n], int(cfg)/n%2 == 1, data, new(modelCoverage))
	})
}
