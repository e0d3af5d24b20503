package mempool

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/wire"
)

// Keys is a ledger's transaction-key table, shared by the pools of one
// ledger (ledger.NewCluster builds one per cluster): an open-addressing
// table from a wire.TxKey to a dense 32-bit ordinal. A slot is a tag, the
// top 32 bits of the key's hash, and the ordinal, 8 bytes without pointers.
// For each ordinal the table keeps the first transaction interned with its
// key, which confirms a tag match, so a hit is exact as in a Go map, and
// how many pools hold a state for it; the key leaves the table when the
// last of them lets go. Each pool keeps its own states in a paged window
// over the ordinals (Mempool.entries), 4 bytes per key. The table holds no
// pool's state, only key → ordinal, which is why sharing it changes no
// pool's verdicts. It doubles when an insert would take it past 3/4 full
// (DESIGN.md §4 has why not 1/2).
//
// Ordinals are handed out in order and never reused. first and refs are
// paged windows over them (paged.go) whose pages start at the page of lo,
// the oldest ordinal still held: letting go of it releases the pages the
// window has passed, and interning takes them back. A pool that stops
// pruning holds that window open, 12 bytes per ordinal interned since, but
// the window keeps no transaction whose key was let go.
type Keys struct {
	slots []txSlot // length 0 or a power of two
	n     int      // slots whose ord is not 0
	shift uint     // 32 − log2(len(slots)): a tag's top bits are its home slot

	lo    int             // the oldest ordinal held, or next if none is
	next  int             // the ordinal the next key interned gets
	first paged[*wire.Tx] // the first transaction interned with each ordinal's key, nil once let go
	refs  paged[int32]    // pools holding a state for each ordinal
}

type txSlot struct {
	tag uint32 // keyTag of the key
	ord int32
}

// indexMinSlots is the capacity the first insert allocates.
const indexMinSlots = 8

// NewKeys returns an empty table; its first ordinal is 1, since 0 marks an
// empty slot.
func NewKeys() *Keys { return &Keys{lo: 1, next: 1} }

// Len returns how many keys the table holds: those some pool holds a state
// for.
func (k *Keys) Len() int { return k.n }

// hashKey is a multiply-mix of all four words of the key. Which word varies
// depends on the transaction kind — an element's sequence number is in the
// third, a proof's epoch in the first, a compressed batch's sequence number
// and a hash-batch's entropy in the second — so every word gets its own odd
// multiplier, the fractional part of an irrational square root (√2, √3, the
// golden ratio, √7). A run of consecutive ids then walks the table in equal
// strides that never line up with a power of two — Fibonacci hashing — and
// fills it more evenly than a random function or a scrambling final round
// would (DESIGN.md §4 has both). Multiplication carries low bits upward, so
// the sum's top bits, the ones home takes, depend on every input bit.
func hashKey(k *wire.TxKey) uint64 {
	w0, w1, w2, w3 := k.Words()
	return w0*0x6a09e667f3bcc909 + w1*0xbb67ae8584caa73b + w2*0x9e3779b97f4a7c15 + w3*0xa54ff53a5f1d36f1
}

// keyTag is what a slot keeps of hashKey: its top 32 bits, which hold the
// home slot of every table shorter than 2³² slots.
func keyTag(k *wire.TxKey) uint32 { return uint32(hashKey(k) >> 32) }

// find returns key's ordinal, 0 when the table does not hold it. tx is a
// transaction with that key, or nil.
func (k *Keys) find(tx *wire.Tx, key *wire.TxKey) int32 {
	if len(k.slots) == 0 {
		return 0
	}
	return k.slots[k.probe(tx, key)].ord
}

// acquire returns key's ordinal, interning the key under the next one if
// the table does not hold it, and counts one more pool holding it. Ordinals
// are 31 bits and never reused: spec's offered-load bound keeps a ledger's
// interned keys below 2³¹, so one past it is a bug, not an input.
func (k *Keys) acquire(tx *wire.Tx, key *wire.TxKey) int32 {
	if (k.n+1)*4 > len(k.slots)*3 {
		// Grown before the probe even if key turns out to be present: at
		// worst one doubling a single insert early.
		k.grow()
	}
	s := &k.slots[k.probe(tx, key)]
	if s.ord == 0 {
		if k.next > math.MaxInt32 {
			panic(fmt.Sprintf("mempool: key ordinal %d does not fit in 32 bits", k.next))
		}
		*s = txSlot{tag: keyTag(key), ord: int32(k.next)}
		k.n++
		*k.first.slot(k.next) = tx
		*k.refs.slot(k.next) = 0
		k.next++
	}
	*k.refs.at(int(s.ord))++
	return s.ord
}

// release drops one pool's hold on ordinal ord, whose key is key. The last
// one removes the key: every later entry of the probe run that the hole
// would cut off from its home slot is shifted back into it, so lookups need
// no "deleted" marker and a table pruned as fast as it fills stays as short
// to probe as a fresh one.
func (k *Keys) release(ord int32, key *wire.TxKey) {
	refs := k.refs.at(int(ord))
	if *refs--; *refs > 0 {
		return
	}
	*k.first.at(int(ord)) = nil
	mask := len(k.slots) - 1
	hole := int(keyTag(key) >> k.shift)
	for k.slots[hole].ord != ord {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; k.slots[j].ord != 0; j = (j + 1) & mask {
		// The entry at j may move back to hole unless its home lies in
		// (hole, j], cyclically: a probe from there never looks at hole.
		if (j-int(k.slots[j].tag>>k.shift))&mask < (j-hole)&mask {
			continue
		}
		k.slots[hole] = k.slots[j]
		hole = j
	}
	k.slots[hole] = txSlot{}
	k.n--
	if int(ord) == k.lo { // advance the window past every ordinal let go
		for k.lo < k.next && k.refs.get(k.lo) == 0 {
			k.lo++
		}
		k.first.releaseBelow(k.lo)
		k.refs.releaseBelow(k.lo)
	}
}

// probe returns the position of key's slot, or of the empty slot that ends
// its probe run. A slot with key's tag holds key if its first transaction
// is tx (one *wire.Tx is shared by every pool) or has key. The table must
// have an empty slot, which the load bound guarantees once it has any.
func (k *Keys) probe(tx *wire.Tx, key *wire.TxKey) int {
	tag, mask := keyTag(key), len(k.slots)-1
	for i := int(tag >> k.shift); ; i = (i + 1) & mask {
		if s := &k.slots[i]; s.ord == 0 || s.tag == tag && k.holds(s.ord, tx, key) {
			return i
		}
	}
}

func (k *Keys) holds(ord int32, tx *wire.Tx, key *wire.TxKey) bool {
	x := *k.first.at(int(ord))
	return x == tx || x.MapKey() == *key
}

// grow doubles the table, placing each entry by its stored tag.
func (k *Keys) grow() {
	old := k.slots
	k.slots = make([]txSlot, max(2*len(old), indexMinSlots))
	k.shift = uint(32 - bits.TrailingZeros(uint(len(k.slots))))
	for _, s := range old {
		for i := int(s.tag >> k.shift); s.ord != 0; i = (i + 1) & (len(k.slots) - 1) {
			if k.slots[i].ord == 0 {
				k.slots[i] = s
				break
			}
		}
	}
}

// Verify reports the first way the table disagrees with the pools that
// share it, nil if none: an ordinal's count of holders differs from the
// number of pools with a state for it, the table keeps a transaction for an
// ordinal nobody holds or holds a key no pool has a state for, a key no
// longer finds its own ordinal, or a window keeps a page its front has
// passed. pools must be every pool the table was handed to.
func (k *Keys) Verify(pools []*Mempool) error {
	if err := frontPage(&k.refs, k.lo); err != nil {
		return fmt.Errorf("the table's counts: %v", err)
	}
	if err := frontPage(&k.first, k.lo); err != nil {
		return fmt.Errorf("the table's transactions: %v", err)
	}
	holders := make([]int32, k.next-k.lo)
	for pi, p := range pools {
		if p.keys != k {
			return fmt.Errorf("pool %d does not share the table", pi)
		}
		if p.held == 0 && len(p.entries.dir) > 0 {
			return fmt.Errorf("pool %d holds no key and keeps %d pages of states", pi, len(p.entries.dir))
		}
		if err := frontPage(&p.entries, int(p.entLo)); err != nil {
			return fmt.Errorf("pool %d's states: %v", pi, err)
		}
		for j, pg := range p.entries.dir {
			for i, st := range pg {
				ord := p.entries.base + j<<pageShift + i
				switch {
				case st == 0:
					continue
				case ord < int(p.entLo):
					return fmt.Errorf("pool %d holds ordinal %d below its window's start %d", pi, ord, p.entLo)
				case ord < k.lo || ord >= k.next:
					return fmt.Errorf("pool %d holds ordinal %d outside the table's window [%d, %d)", pi, ord, k.lo, k.next)
				}
				holders[ord-k.lo]++
			}
		}
	}
	held := 0
	for i, n := range holders {
		ord := k.lo + i
		switch tx, refs := k.first.get(ord), k.refs.get(ord); {
		case n != refs:
			return fmt.Errorf("ordinal %d counts %d holders, %d pools hold it", ord, refs, n)
		case n == 0 && tx != nil:
			return fmt.Errorf("ordinal %d is held by no pool and still keeps its transaction", ord)
		case n > 0 && tx == nil:
			return fmt.Errorf("ordinal %d is held by %d pools and keeps no transaction", ord, n)
		case n > 0:
			held++
			if key := tx.MapKey(); int(k.find(nil, &key)) != ord {
				return fmt.Errorf("ordinal %d: its key finds ordinal %d", ord, k.find(nil, &key))
			}
		}
	}
	if held != k.n {
		return fmt.Errorf("the table holds %d keys, the pools hold %d", k.n, held)
	}
	return nil
}

// frontPage reports a window whose pages do not start at the page of lo,
// its oldest index.
func frontPage[T any](p *paged[T], lo int) error {
	if len(p.dir) > 0 && p.base != lo&^pageMask {
		return fmt.Errorf("%d pages from %d for a window from %d", len(p.dir), p.base, lo)
	}
	return nil
}
