package mempool

import (
	"math/bits"

	"repro/internal/wire"
)

// txIndex is the pool's index: an open-addressing table from a
// transaction's 32-byte key to an int64 that is never 0 — the value 0 is
// what marks a slot empty, so a slot is the key and the value and nothing
// else, 40 bytes, no control bytes and no pointers. A lookup hashes the key,
// walks the slots from its home position until it meets the key (all 32
// bytes compared — a hit is exact, as in a Go map) or an empty slot, and
// usually touches one cache line where the runtime's swiss map touches a
// control word and then a slot in another.
//
// The table doubles when an insert would take it past 3/4 full. At 1/2 it
// would probe a little less and hold up to twice the slots per entry: fifty
// pools of co-signed hash-batch tombstones then outweigh the map they
// replace (DESIGN.md §6 has the numbers).
type txIndex struct {
	slots []txSlot // length 0 or a power of two
	n     int      // slots whose val is not 0
	shift uint     // 64 − log2(len(slots)): a hash's top bits are its home slot
}

type txSlot struct {
	key wire.TxKey
	val int64
}

// indexMinSlots is the capacity the first insert allocates.
const indexMinSlots = 8

// hashKey is a multiply-mix of all four words of the key. Which word varies
// depends on the transaction kind — an element's sequence number is in the
// third, a proof's epoch in the first, a compressed batch's sequence number
// and a hash-batch's entropy in the second — so every word gets its own odd
// multiplier, the fractional part of an irrational square root (√2, √3, the
// golden ratio, √7). A run of consecutive ids then walks the table in equal
// strides that never line up with a power of two — Fibonacci hashing — and
// fills it more evenly than a random function would: at load 3/4 a hit costs
// 1.6 probes on sequential element ids against 2.5 with a scrambling final
// round, which was tried and read 0.66 s against 0.57 on vanilla_backlog
// (DESIGN.md §6). Multiplication carries low bits upward, so the sum's top
// bits, the ones home takes, depend on every input bit.
func hashKey(k *wire.TxKey) uint64 {
	w0, w1, w2, w3 := k.Words()
	return w0*0x6a09e667f3bcc909 + w1*0xbb67ae8584caa73b + w2*0x9e3779b97f4a7c15 + w3*0xa54ff53a5f1d36f1
}

// get returns the value stored under key, 0 when there is none.
func (t *txIndex) get(key *wire.TxKey) int64 {
	if len(t.slots) == 0 {
		return 0
	}
	return t.slots[t.probe(key)].val
}

// swap stores val (not 0) under key and returns what was there before, 0 if
// the key is new.
func (t *txIndex) swap(key *wire.TxKey, val int64) int64 {
	if (t.n+1)*4 > len(t.slots)*3 {
		// Grown before the probe even if key turns out to be present: at
		// worst one doubling a single insert early.
		t.grow()
	}
	s := &t.slots[t.probe(key)]
	old := s.val
	if old == 0 {
		s.key = *key
		t.n++
	}
	s.val = val
	return old
}

// probe returns the position of key's slot, or of the empty slot that ends
// its probe run. The table must have an empty slot, which the load bound
// guarantees once it has any.
func (t *txIndex) probe(key *wire.TxKey) int {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.val == 0 || s.key == *key {
			return i
		}
	}
}

// home is where key's probe run starts: the top bits of its hash.
func (t *txIndex) home(key *wire.TxKey) int { return int(hashKey(key) >> t.shift) }

func (t *txIndex) grow() {
	old := t.slots
	t.slots = make([]txSlot, max(2*len(old), indexMinSlots))
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
	for i := range old {
		if old[i].val != 0 {
			t.slots[t.probe(&old[i].key)] = old[i]
		}
	}
}

// del removes key if present. Every later entry of the same probe run that
// the hole would cut off from its home slot is shifted back into it, so
// lookups need no "deleted" marker and a table that is pruned as fast as it
// fills stays as short to probe as a fresh one.
func (t *txIndex) del(key *wire.TxKey) {
	if len(t.slots) == 0 {
		return
	}
	hole := t.probe(key)
	if t.slots[hole].val == 0 {
		return
	}
	mask := len(t.slots) - 1
	for i := (hole + 1) & mask; t.slots[i].val != 0; i = (i + 1) & mask {
		// The entry at i may move back to hole unless its home lies in
		// (hole, i], cyclically: a probe from there never looks at hole.
		if (i-t.home(&t.slots[i].key))&mask < (i-hole)&mask {
			continue
		}
		t.slots[hole] = t.slots[i]
		hole = i
	}
	t.slots[hole] = txSlot{}
	t.n--
}
