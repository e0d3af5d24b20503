package mempool

import (
	"math/bits"

	"repro/internal/wire"
)

// txIndex is the pool's index: an open-addressing table from a
// transaction's key to an int64 that is never 0, the mark of an empty slot.
// A slot is the key's hash and the value, 16 bytes without pointers; the
// value locates a transaction with the key, which the pool holds anyway, and
// a lookup confirms a hash match against it, so a hit is exact as in a Go
// map. The table doubles when an insert would take it past 3/4 full
// (DESIGN.md §6 has why not 1/2).
type txIndex struct {
	slots []txSlot // length 0 or a power of two
	n     int      // slots whose val is not 0
	shift uint     // 64 − log2(len(slots)): a hash's top bits are its home slot
	txs   txSource
}

type txSlot struct {
	fp  uint64 // hashKey of the key
	val int64
}

// txSource returns the transaction a value locates (Mempool.txAt).
type txSource interface{ txAt(val int64) *wire.Tx }

// indexMinSlots is the capacity the first insert allocates.
const indexMinSlots = 8

// hashKey is a multiply-mix of all four words of the key. Which word varies
// depends on the transaction kind — an element's sequence number is in the
// third, a proof's epoch in the first, a compressed batch's sequence number
// and a hash-batch's entropy in the second — so every word gets its own odd
// multiplier, the fractional part of an irrational square root (√2, √3, the
// golden ratio, √7). A run of consecutive ids then walks the table in equal
// strides that never line up with a power of two — Fibonacci hashing — and
// fills it more evenly than a random function or a scrambling final round
// would (DESIGN.md §6 has both). Multiplication carries low bits upward, so
// the sum's top bits, the ones home takes, depend on every input bit.
func hashKey(k *wire.TxKey) uint64 {
	w0, w1, w2, w3 := k.Words()
	return w0*0x6a09e667f3bcc909 + w1*0xbb67ae8584caa73b + w2*0x9e3779b97f4a7c15 + w3*0xa54ff53a5f1d36f1
}

// get returns the value stored under key, 0 when there is none. tx is a
// transaction with that key, or nil.
func (t *txIndex) get(tx *wire.Tx, key *wire.TxKey) int64 {
	if len(t.slots) == 0 {
		return 0
	}
	return t.slots[t.probe(tx, key)].val
}

// swap stores val (not 0) under key and returns what was there before, 0 if
// the key is new.
func (t *txIndex) swap(tx *wire.Tx, key *wire.TxKey, val int64) int64 {
	if (t.n+1)*4 > len(t.slots)*3 {
		// Grown before the probe even if key turns out to be present: at
		// worst one doubling a single insert early.
		t.grow()
	}
	s := &t.slots[t.probe(tx, key)]
	old := s.val
	if old == 0 {
		s.fp = hashKey(key)
		t.n++
	}
	s.val = val
	return old
}

// probe returns the position of key's slot, or of the empty slot that ends
// its probe run. A slot with key's hash holds key if its transaction is tx
// (one *wire.Tx is shared by every pool) or has key. The table must have an
// empty slot, which the load bound guarantees once it has any.
func (t *txIndex) probe(tx *wire.Tx, key *wire.TxKey) int {
	fp, mask := hashKey(key), len(t.slots)-1
	for i := int(fp >> t.shift); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.val == 0 || s.fp == fp && t.holds(s.val, tx, key) {
			return i
		}
	}
}

func (t *txIndex) holds(val int64, tx *wire.Tx, key *wire.TxKey) bool {
	x := t.txs.txAt(val)
	return x == tx || x.MapKey() == *key
}

// grow doubles the table, placing each entry by its stored hash.
func (t *txIndex) grow() {
	old := t.slots
	t.slots = make([]txSlot, max(2*len(old), indexMinSlots))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	for _, s := range old {
		for i := int(s.fp >> t.shift); s.val != 0; i = (i + 1) & (len(t.slots) - 1) {
			if t.slots[i].val == 0 {
				t.slots[i] = s
				break
			}
		}
	}
}

// delTombstone removes key if its value is negative, a tombstone, and
// reports whether it did. Every later entry of the probe run that the hole
// would cut off from its home slot is shifted back into it, so lookups need
// no "deleted" marker and a table pruned as fast as it fills stays as short
// to probe as a fresh one.
func (t *txIndex) delTombstone(tx *wire.Tx, key *wire.TxKey) bool {
	if len(t.slots) == 0 {
		return false
	}
	hole := t.probe(tx, key)
	if t.slots[hole].val >= 0 {
		return false
	}
	mask := len(t.slots) - 1
	for i := (hole + 1) & mask; t.slots[i].val != 0; i = (i + 1) & mask {
		// The entry at i may move back to hole unless its home lies in
		// (hole, i], cyclically: a probe from there never looks at hole.
		if (i-int(t.slots[i].fp>>t.shift))&mask < (i-hole)&mask {
			continue
		}
		t.slots[hole] = t.slots[i]
		hole = i
	}
	t.slots[hole] = txSlot{}
	t.n--
	return true
}
