package mempool

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/wire"
)

// txVals is the txSource of an index driven on its own: the transaction
// each value was stored for.
type txVals map[int64]*wire.Tx

func (v txVals) txAt(val int64) *wire.Tx { return v[val] }

// collidingProofs returns two proof transactions whose keys differ and whose
// hashes differ by delta, 0 for equal hashes. hashKey is linear in the key's
// words, a proof's epoch is the first word and its signer the second, so
// (epoch+1, signer + (delta − K0)·K1⁻¹ mod 2⁶⁴) lands on the sum of (epoch,
// signer) plus delta; K0 and K1 are read off hashKey itself.
func collidingProofs(epoch uint64, signer wire.NodeID, delta uint64) (a, b *wire.Tx) {
	proof := func(e uint64, s wire.NodeID) *wire.Tx {
		return wire.NewProofTx(&wire.EpochProof{Epoch: e, Signer: s})
	}
	h := func(e uint64, s wire.NodeID) uint64 { k := proof(e, s).MapKey(); return hashKey(&k) }
	k0, k1 := h(1, 0)-h(0, 0), h(0, 1)-h(0, 0)
	// k1⁻¹ by Newton's iteration: an odd k1 is its own inverse mod 2³, and
	// each step doubles the bits that are right.
	inv := k1
	for range 5 {
		inv *= 2 - k1*inv
	}
	return proof(epoch, signer), proof(epoch+1, signer+wire.NodeID((delta-k0)*inv))
}

// indexTxs is the fuzz driver's universe: 21 transactions of all four kinds
// and two proofs whose hashes collide. 23 keys are few enough that the
// table never grows past 32 slots (24 would: a swap grows before it
// probes), so a probe run reaches the end of the slot array and wraps every
// few operations. indexTwins[i] has indexTxs[i]'s key and is another
// *wire.Tx, built the other way (constructor or literal).
var indexTxs, indexTwins = func() (txs, twins [23]*wire.Tx) {
	for i := range 21 {
		txs[i] = modelTx(i)
	}
	txs[21], txs[22] = collidingProofs(1000, 3, 0)
	for i, tx := range txs {
		twins[i] = twinTx(tx, i%2 == 0)
	}
	return txs, twins
}()

// runsPastEnd reports whether the run of occupied slots that starts at the
// position of tx's key continues from the last slot into slot 0: deleting key
// then has to shift entries back across the wrap.
func runsPastEnd(t *txIndex, tx *wire.Tx) bool {
	if len(t.slots) == 0 {
		return false
	}
	key := tx.MapKey()
	i := t.probe(tx, &key)
	for n := 0; n < len(t.slots) && t.slots[i].val != 0; n++ {
		if i == len(t.slots)-1 {
			return t.slots[0].val != 0
		}
		i++
	}
	return false
}

// runIndexOps interprets data as get / insert / tombstone / delete
// operations, two bytes each, applied to a txIndex and to a Go map, and
// compares every answer, the length, and after every operation every key
// of the universe. An operation names its key by the universe's
// transaction, by that transaction's twin or by no transaction at all, so
// a slot has to be found by its key as well as by its *wire.Tx. Values are
// positive sequence numbers or negative tombstones, each stored once, and
// locate the transaction they were stored with; only a tombstone is
// deleted. It returns how many deletions crossed the wrap.
func runIndexOps(t *testing.T, data []byte) (wrapped int) {
	t.Helper()
	vals := txVals{}
	idx := txIndex{txs: vals}
	want := make(map[wire.TxKey]int64)
	for step := 0; step+1 < len(data); step += 2 {
		op, i := data[step]%4, int(data[step+1])%len(indexTxs)
		tx, stored := indexTxs[i], indexTxs[i]
		switch data[step] / 4 % 3 {
		case 1:
			tx, stored = indexTwins[i], indexTwins[i]
		case 2:
			tx = nil
		}
		key := stored.MapKey()
		switch op {
		case 0:
			if got := idx.get(tx, &key); got != want[key] {
				t.Fatalf("step %d: get = %d, map has %d", step/2, got, want[key])
			}
		case 1, 2: // a new sequence number, or a tombstone over whatever is there
			val := int64(step + 1)
			if op == 2 {
				val = -val
			}
			vals[val] = stored
			if got := idx.swap(tx, &key, val); got != want[key] {
				t.Fatalf("step %d: swap returned %d, map had %d", step/2, got, want[key])
			}
			want[key] = val
		case 3:
			tombstoned := want[key] < 0
			if tombstoned && runsPastEnd(&idx, stored) {
				wrapped++
			}
			if got := idx.delTombstone(tx, &key); got != tombstoned {
				t.Fatalf("step %d: delTombstone = %v, map holds %d", step/2, got, want[key])
			}
			if tombstoned {
				delete(want, key)
			}
		}
		if idx.n != len(want) {
			t.Fatalf("step %d: len = %d, map has %d", step/2, idx.n, len(want))
		}
		if len(idx.slots) > 32 {
			t.Fatalf("step %d: %d slots for at most %d keys", step/2, len(idx.slots), len(indexTxs))
		}
		for i, tx := range indexTxs {
			key := tx.MapKey()
			if got, byKey := idx.get(tx, &key), idx.get(nil, &key); got != want[key] || byKey != want[key] {
				t.Fatalf("step %d (op %d): key %d reads %d (by key alone %d), map has %d", step/2, op, i, got, byKey, want[key])
			}
		}
	}
	return wrapped
}

// The table against a map on seeded random operation streams, which must
// reach the case the small universe is there for.
func TestTxIndexModel(t *testing.T) {
	wrapped := 0
	for seed := int64(1); seed <= 8; seed++ {
		wrapped += runIndexOps(t, modelStream(seed, 4000))
	}
	t.Logf("deletions that shifted entries back across the end of the slot array: %d", wrapped)
	if wrapped < 10 {
		t.Errorf("only %d deletions crossed the wrap: the streams no longer reach it", wrapped)
	}
}

func FuzzTxIndex(f *testing.F) {
	for seed := int64(100); seed < 103; seed++ {
		f.Add(modelStream(seed, 300))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runIndexOps(t, data) })
}

// probeStats returns the longest probe run of a stored key (slots read to
// find it), the mean over all keys, and the longest stretch of occupied
// slots, which is what a miss can be made to read.
func probeStats(t *txIndex) (longest int, mean float64, cluster int) {
	mask := len(t.slots) - 1
	total, run := 0, 0
	for i := 0; i < 2*len(t.slots); i++ { // twice round: a cluster may wrap
		s := &t.slots[i&mask]
		if s.val == 0 {
			run = 0
			continue
		}
		run++
		cluster = max(cluster, run)
		if i < len(t.slots) {
			d := (i-int(s.tag>>t.shift))&mask + 1
			longest = max(longest, d)
			total += d
		}
	}
	return longest, float64(total) / float64(t.n), cluster
}

// The guard on the hash mix: the key populations the pools really hold, at
// the sizes vanilla_backlog and mesh50 reach and at exactly 3/4 full — the
// fullest a table ever is — must stay cheap to probe. A random function
// would give a mean near 2.5 and a longest run over 100 at that load; the
// multiply-mix does better on sequential ids, and a mix that ignored the
// word that varies would put all of them in one run.
func TestTxIndexProbeRuns(t *testing.T) {
	elements := func(n int) []*wire.Tx { // four clients' consecutive ids, interleaved as they arrive
		txs := make([]*wire.Tx, n)
		for i := range txs {
			txs[i] = wire.NewElementTx(&wire.Element{ID: wire.NewElementID(wire.ClientID(10+i%4), uint64(i/4))})
		}
		return txs
	}
	cosigned := func(n int) []*wire.Tx { // 50 signers × random batch hashes
		rng := rand.New(rand.NewSource(1))
		txs := make([]*wire.Tx, 0, n)
		for len(txs) < n {
			hash := make([]byte, wire.DigestSize)
			binary.LittleEndian.PutUint64(hash, rng.Uint64())
			for signer := 0; signer < 50 && len(txs) < n; signer++ {
				txs = append(txs, wire.NewHashBatchTx(&wire.HashBatch{Hash: hash, Signer: wire.NodeID(signer)}))
			}
		}
		return txs
	}
	proofs := func(n int) []*wire.Tx { // 10 signers × consecutive epochs
		txs := make([]*wire.Tx, n)
		for i := range txs {
			txs[i] = wire.NewProofTx(&wire.EpochProof{Epoch: uint64(1 + i/10), Signer: wire.NodeID(i % 10)})
		}
		return txs
	}
	cases := []struct {
		name                 string
		txs                  []*wire.Tx
		maxLongest, maxClust int
		maxMean              float64
	}{
		{"60,000 element ids", elements(60_000), 8, 16, 1.3},
		{"49,152 element ids (3/4 of 65,536)", elements(49_152), 24, 48, 2.0},
		{"17,500 co-signed hashes", cosigned(17_500), 64, 96, 2.0},
		{"12,288 co-signed hashes (3/4 of 16,384)", cosigned(12_288), 128, 192, 3.0},
		{"12,288 proofs (3/4 of 16,384)", proofs(12_288), 32, 64, 2.0},
	}
	for _, c := range cases {
		vals := txVals{}
		idx := txIndex{txs: vals}
		for i, tx := range c.txs {
			vals[int64(i+1)] = tx
			key := tx.MapKey()
			idx.swap(tx, &key, int64(i+1))
		}
		if idx.n != len(c.txs) {
			t.Fatalf("%s: %d keys stored, want %d", c.name, idx.n, len(c.txs))
		}
		longest, mean, cluster := probeStats(&idx)
		t.Logf("%s in %d slots: longest probe run %d, mean %.2f, longest cluster %d", c.name, len(idx.slots), longest, mean, cluster)
		if longest > c.maxLongest || cluster > c.maxClust || mean > c.maxMean {
			t.Errorf("%s: longest probe run %d (bound %d), mean %.2f (bound %.1f), longest cluster %d (bound %d)",
				c.name, longest, c.maxLongest, mean, c.maxMean, cluster, c.maxClust)
		}
	}
}

// A slot is 8 bytes of plain 32-bit integers, as wire_test.go pins TxKey:
// the table is then one allocation the garbage collector never scans, and a
// field that would grow it back fails here.
func TestTxSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(txSlot{}); got != 8 {
		t.Fatalf("sizeof(txSlot) = %d, want 8", got)
	}
	typ := reflect.TypeOf(txSlot{})
	for i := range typ.NumField() {
		if f := typ.Field(i); f.Type.Kind() != reflect.Uint32 && f.Type.Kind() != reflect.Int32 {
			t.Errorf("txSlot.%s is a %s: a slot holds 32-bit integers only", f.Name, f.Type)
		}
	}
}

// A value wider than a slot's 32 bits is a bug in the pool, which keeps its
// sequence numbers and log ordinals below 2³¹: storing one panics instead of
// wrapping into a value that locates another transaction. The extremes that
// fit are stored and read back.
func TestTxIndexRefusesWideValues(t *testing.T) {
	tx := modelTx(1)
	key := tx.MapKey()
	for _, val := range []int64{math.MaxInt32 + 1, math.MinInt32 - 1, 1 << 32, math.MinInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("swap of %d did not panic", val)
				}
			}()
			idx := txIndex{txs: txVals{val: tx}}
			idx.swap(tx, &key, val)
		}()
	}
	for _, val := range []int64{math.MaxInt32, math.MinInt32} {
		idx := txIndex{txs: txVals{val: tx}}
		if idx.swap(tx, &key, val); idx.get(nil, &key) != val {
			t.Errorf("stored %d, read %d", val, idx.get(nil, &key))
		}
	}
}

// Two keys with one tag are two entries all the way through the pool:
// admitted, tombstoned, pruned one at a time, and told apart by Has. Both
// pairs share a probe run, so every verdict on the one found past the other's
// slot rests on the key comparison that confirms a tag match: one pair has
// equal 64-bit hashes, the other hashes that agree only in the top 32 bits a
// slot keeps.
func TestTxIndexHashCollision(t *testing.T) {
	for _, delta := range []uint64{0, 1} {
		a, b := collidingProofs(7, 2, delta)
		ka, kb := a.MapKey(), b.MapKey()
		if ka == kb || keyTag(&ka) != keyTag(&kb) || hashKey(&kb)-hashKey(&ka) != delta {
			t.Fatalf("keys equal %v, hashes %x and %x: want distinct keys whose hashes differ by %d in the low 32 bits",
				ka == kb, hashKey(&ka), hashKey(&kb), delta)
		}
		t.Logf("hashes %x and %x", hashKey(&ka), hashKey(&kb))
		p := New(0, sim.New(1), nil, nil, PaperConfig(), nil, nil)
		if !p.AddTx(a) || !p.AddTx(b) || p.Size() != 2 || !p.Has(ka) || !p.Has(kb) {
			t.Fatalf("delta %d: size %d, has %v/%v: both transactions must be admitted", delta, p.Size(), p.Has(ka), p.Has(kb))
		}
		if p.AddTx(twinTx(b, false)) || p.AddTx(a) {
			t.Fatalf("delta %d: a second offer of either key was admitted", delta)
		}
		p.RemoveCommitted(1, []*wire.Tx{b})
		if p.Size() != 1 || !p.Has(ka) || p.Has(kb) || p.TombstonedKeys() != 1 {
			t.Fatalf("delta %d: size/tombstones %d/%d, has %v/%v after committing b, want 1/1 true/false",
				delta, p.Size(), p.TombstonedKeys(), p.Has(ka), p.Has(kb))
		}
		p.RemoveCommitted(2, []*wire.Tx{twinTx(a, false)})
		if p.Size() != 0 || p.Bytes() != 0 || p.TombstonedKeys() != 2 || p.Has(ka) || p.Has(kb) {
			t.Fatalf("delta %d: size/bytes/tombstones %d/%d/%d after committing both, want 0/0/2",
				delta, p.Size(), p.Bytes(), p.TombstonedKeys())
		}
		p.PruneTombstonesBelow(1) // b's tombstone goes, a's stays
		if p.TombstonedKeys() != 1 || p.TombstonesPruned() != 1 {
			t.Fatalf("delta %d: tombstones/pruned = %d/%d after pruning height 1, want 1/1", delta, p.TombstonedKeys(), p.TombstonesPruned())
		}
		if p.AddTx(a) {
			t.Fatalf("delta %d: a's tombstone was pruned with b's", delta)
		}
		if !p.AddTx(twinTx(b, true)) || !p.Has(kb) || p.Has(ka) {
			t.Fatalf("delta %d: after re-admitting b: has %v/%v, want false/true", delta, p.Has(ka), p.Has(kb))
		}
		if _, _, _, dup := p.Stats(); dup != 3 {
			t.Fatalf("delta %d: duplicates = %d, want 3", delta, dup)
		}
	}
}
