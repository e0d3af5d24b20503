package mempool

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

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
func runsPastEnd(k *Keys, tx *wire.Tx) bool {
	if len(k.slots) == 0 {
		return false
	}
	key := tx.MapKey()
	i := k.probe(tx, &key)
	for n := 0; n < len(k.slots) && k.slots[i].ord != 0; n++ {
		if i == len(k.slots)-1 {
			return k.slots[0].ord != 0
		}
		i++
	}
	return false
}

// keyModel is what runIndexOps holds the table to: a key's ordinal and how
// many holders it has.
type keyModel struct{ ord, refs int32 }

// runIndexOps interprets data as find / acquire / release operations, two
// bytes each, applied to a Keys table and to a Go map, and compares every
// answer, the length, and after every operation every key of the universe
// and the table's window of ordinals. An operation names its key by the
// universe's transaction, by that transaction's twin or, for a find, by no
// transaction at all, so a slot has to be found by its key as well as by
// the *wire.Tx it was interned with. A new key takes the next ordinal, and
// the last release of a key deletes it. It returns how many deletions
// crossed the wrap.
func runIndexOps(t *testing.T, data []byte) (wrapped int) {
	t.Helper()
	k := NewKeys()
	want := make(map[wire.TxKey]keyModel)
	next := int32(1)
	for step := 0; step+1 < len(data); step += 2 {
		op, i := data[step]%4, int(data[step+1])%len(indexTxs)
		tx := indexTxs[i]
		switch data[step] / 4 % 3 {
		case 1:
			tx = indexTwins[i]
		case 2:
			if op == 0 {
				tx = nil
			}
		}
		key := indexTxs[i].MapKey()
		m := want[key]
		switch op {
		case 0:
			if got := k.find(tx, &key); got != m.ord {
				t.Fatalf("step %d: find = %d, map has %d", step/2, got, m.ord)
			}
		case 1, 2:
			if m.refs == 0 {
				m.ord = next
				next++
			}
			if got := k.acquire(tx, &key); got != m.ord {
				t.Fatalf("step %d: acquire = %d, map has %d", step/2, got, m.ord)
			}
			m.refs++
			want[key] = m
		case 3:
			if m.refs == 0 {
				break
			}
			if m.refs == 1 && runsPastEnd(k, indexTxs[i]) {
				wrapped++
			}
			k.release(m.ord, &key)
			if m.refs--; m.refs == 0 {
				delete(want, key)
			} else {
				want[key] = m
			}
		}
		if k.Len() != len(want) {
			t.Fatalf("step %d: len = %d, map has %d", step/2, k.Len(), len(want))
		}
		if len(k.slots) > 32 {
			t.Fatalf("step %d: %d slots for at most %d keys", step/2, len(k.slots), len(indexTxs))
		}
		for i, tx := range indexTxs {
			key := tx.MapKey()
			m := want[key]
			if got, byKey := k.find(tx, &key), k.find(nil, &key); got != m.ord || byKey != m.ord {
				t.Fatalf("step %d (op %d): key %d finds %d (by key alone %d), map has %d", step/2, op, i, got, byKey, m.ord)
			}
			if m.refs == 0 {
				continue
			}
			if ord := int(m.ord); ord < k.lo || ord >= k.next || k.refs.get(ord) != m.refs || k.first.get(ord).MapKey() != key {
				t.Fatalf("step %d: key %d, ordinal %d, is not in the window [%d, %d) with %d holders and its transaction",
					step/2, i, m.ord, k.lo, k.next, m.refs)
			}
		}
		if k.lo < k.next && k.refs.get(k.lo) == 0 {
			t.Fatalf("step %d: the window starts at ordinal %d, which nobody holds", step/2, k.lo)
		}
		if k.next != int(next) {
			t.Fatalf("step %d: the next ordinal is %d, the map's %d", step/2, k.next, next)
		}
		for ord := k.lo; ord < k.next; ord++ {
			if x, refs := k.first.get(ord), k.refs.get(ord); (x == nil) != (refs == 0) {
				t.Fatalf("step %d: ordinal %d has %d holders and transaction %p", step/2, ord, refs, x)
			}
		}
		for _, w := range []error{frontPage(&k.first, k.lo), frontPage(&k.refs, k.lo)} {
			if w != nil {
				t.Fatalf("step %d: %v", step/2, w)
			}
		}
		if len(k.first.dir) > 1+(k.next-k.lo)>>pageShift+1 {
			t.Fatalf("step %d: %d pages for the window [%d, %d)", step/2, len(k.first.dir), k.lo, k.next)
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
func probeStats(t *Keys) (longest int, mean float64, cluster int) {
	mask := len(t.slots) - 1
	total, run := 0, 0
	for i := 0; i < 2*len(t.slots); i++ { // twice round: a cluster may wrap
		s := &t.slots[i&mask]
		if s.ord == 0 {
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
			hash := make([]byte, setcrypto.HashSize)
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
		idx := NewKeys()
		for _, tx := range c.txs {
			key := tx.MapKey()
			idx.acquire(tx, &key)
		}
		if idx.n != len(c.txs) {
			t.Fatalf("%s: %d keys stored, want %d", c.name, idx.n, len(c.txs))
		}
		longest, mean, cluster := probeStats(idx)
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

// An ordinal or a sequence number wider than 31 bits is a bug, not an
// input: spec's offered-load bound keeps a ledger's interned keys and a
// pool's admissions below 2³¹. Taking one panics instead of wrapping into a
// value that names another key or transaction; the last ones that fit are
// stored and read back.
func TestTxIndexRefusesWideValues(t *testing.T) {
	tx, other := modelTx(1), modelTx(2)
	key, otherKey := tx.MapKey(), other.MapKey()
	k := NewKeys()
	k.lo, k.next = math.MaxInt32, math.MaxInt32 // every ordinal below it was handed out and let go
	if ord := k.acquire(tx, &key); ord != math.MaxInt32 || k.find(nil, &key) != math.MaxInt32 {
		t.Fatalf("the last ordinal: acquired %d, found %d", ord, k.find(nil, &key))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an ordinal past 2³¹−1 was handed out")
			}
		}()
		k.acquire(other, &otherKey)
	}()

	p := New(0, sim.New(1), nil, nil, PaperConfig(), nil, nil)
	p.head, p.next = math.MaxInt32, math.MaxInt32 // the next admission's sequence number
	if !p.AddTx(tx) || !p.Has(key) || p.state(p.keys.find(tx, &key)) != math.MaxInt32 {
		t.Fatal("the last sequence number that fits was not stored")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a sequence number past 2³¹−1 was stored")
			}
		}()
		p.AddTx(other)
	}()
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
		if p.Size() != 0 || p.bytes != 0 || p.TombstonedKeys() != 2 || p.Has(ka) || p.Has(kb) {
			t.Fatalf("delta %d: size/bytes/tombstones %d/%d/%d after committing both, want 0/0/2",
				delta, p.Size(), p.bytes, p.TombstonedKeys())
		}
		p.PruneTombstonesBelow(1) // b's tombstone goes, a's stays
		if p.TombstonedKeys() != 1 {
			t.Fatalf("delta %d: tombstones = %d after pruning height 1, want 1", delta, p.TombstonedKeys())
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
