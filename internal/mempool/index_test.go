package mempool

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/wire"
)

// indexKeys is the fuzz driver's key universe: 24 keys of all four kinds,
// few enough that the table never grows past 32 slots, so a probe run
// reaches the end of the slot array and wraps every few operations.
var indexKeys = func() (keys [24]wire.TxKey) {
	for i := range keys {
		keys[i] = modelTx(i).MapKey()
	}
	return keys
}()

// runsPastEnd reports whether the run of occupied slots that starts at
// key's position continues from the last slot into slot 0: deleting key
// then has to shift entries back across the wrap.
func runsPastEnd(t *txIndex, key *wire.TxKey) bool {
	if len(t.slots) == 0 {
		return false
	}
	i := t.probe(key)
	for n := 0; n < len(t.slots) && t.slots[i].val != 0; n++ {
		if i == len(t.slots)-1 {
			return t.slots[0].val != 0
		}
		i++
	}
	return false
}

// runIndexOps interprets data as get / insert / overwrite / delete
// operations, two bytes each, applied to a txIndex and to a Go map, and
// compares every answer, the length, and after every operation every key
// of the universe. It returns how many deletions crossed the wrap.
func runIndexOps(t *testing.T, data []byte) (wrapped int) {
	t.Helper()
	var idx txIndex
	want := make(map[wire.TxKey]int64)
	for step := 0; step+1 < len(data); step += 2 {
		op, key := data[step]%4, indexKeys[int(data[step+1])%len(indexKeys)]
		switch op {
		case 0:
			if got := idx.get(&key); got != want[key] {
				t.Fatalf("step %d: get = %d, map has %d", step/2, got, want[key])
			}
		case 1, 2: // a new sequence number, or the tombstone over whatever is there
			val := int64(step + 1)
			if op == 2 {
				val = tombstone
			}
			if got := idx.swap(&key, val); got != want[key] {
				t.Fatalf("step %d: swap returned %d, map had %d", step/2, got, want[key])
			}
			want[key] = val
		case 3:
			if want[key] != 0 && runsPastEnd(&idx, &key) {
				wrapped++
			}
			idx.del(&key)
			delete(want, key)
		}
		if idx.n != len(want) {
			t.Fatalf("step %d: len = %d, map has %d", step/2, idx.n, len(want))
		}
		if len(idx.slots) > 32 {
			t.Fatalf("step %d: %d slots for at most %d keys", step/2, len(idx.slots), len(indexKeys))
		}
		for i := range indexKeys {
			if got := idx.get(&indexKeys[i]); got != want[indexKeys[i]] {
				t.Fatalf("step %d (op %d): key %d reads %d, map has %d", step/2, op, i, got, want[indexKeys[i]])
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
			d := (i-t.home(&s.key))&mask + 1
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
	elements := func(n int) []wire.TxKey { // four clients' consecutive ids, interleaved as they arrive
		keys := make([]wire.TxKey, n)
		for i := range keys {
			keys[i] = wire.NewElementTx(&wire.Element{ID: wire.NewElementID(wire.ClientID(10+i%4), uint64(i/4))}).MapKey()
		}
		return keys
	}
	cosigned := func(n int) []wire.TxKey { // 50 signers × random batch hashes
		rng := rand.New(rand.NewSource(1))
		keys := make([]wire.TxKey, 0, n)
		for len(keys) < n {
			hash := make([]byte, wire.DigestSize)
			binary.LittleEndian.PutUint64(hash, rng.Uint64())
			for signer := 0; signer < 50 && len(keys) < n; signer++ {
				keys = append(keys, wire.NewHashBatchTx(&wire.HashBatch{Hash: hash, Signer: wire.NodeID(signer)}).MapKey())
			}
		}
		return keys
	}
	proofs := func(n int) []wire.TxKey { // 10 signers × consecutive epochs
		keys := make([]wire.TxKey, n)
		for i := range keys {
			keys[i] = wire.NewProofTx(&wire.EpochProof{Epoch: uint64(1 + i/10), Signer: wire.NodeID(i % 10)}).MapKey()
		}
		return keys
	}
	cases := []struct {
		name                 string
		keys                 []wire.TxKey
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
		var idx txIndex
		for i := range c.keys {
			idx.swap(&c.keys[i], int64(i+1))
		}
		if idx.n != len(c.keys) {
			t.Fatalf("%s: %d keys stored, want %d", c.name, idx.n, len(c.keys))
		}
		longest, mean, cluster := probeStats(&idx)
		t.Logf("%s in %d slots: longest probe run %d, mean %.2f, longest cluster %d", c.name, len(idx.slots), longest, mean, cluster)
		if longest > c.maxLongest || cluster > c.maxClust || mean > c.maxMean {
			t.Errorf("%s: longest probe run %d (bound %d), mean %.2f (bound %.1f), longest cluster %d (bound %d)",
				c.name, longest, c.maxLongest, mean, c.maxMean, cluster, c.maxClust)
		}
	}
}
