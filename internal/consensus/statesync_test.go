package consensus

import (
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/mempool"
	"repro/internal/netsim"
	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// stubSyncer is a StateSyncer with no state of its own: it never serves,
// and it counts the snapshots handed to InstallSync.
type stubSyncer struct{ installs []*checkpoint.Snapshot }

func (*stubSyncer) SyncSnapshot() (*checkpoint.Snapshot, bool)                { return nil, false }
func (*stubSyncer) ServeSnapshot(s *checkpoint.Snapshot) *checkpoint.Snapshot { return s }
func (*stubSyncer) HeaderCommitment() (uint64, uint64)                        { return 0, checkpoint.Seed() }
func (*stubSyncer) VerifyCommitment(uint64, uint64) bool                      { return true }
func (st *stubSyncer) InstallSync(s *checkpoint.Snapshot) bool {
	st.installs = append(st.installs, s)
	return true
}

// Chunk-arrival kinds of a FuzzSyncChunks op byte (low two bits); the next
// two bits pick the sequence number relative to the model's count.
const (
	opChunk     = 0 // a chunk with the right size and sum
	opWrongSize = 1 // a chunk one byte too big
	opWrongSum  = 2 // a chunk with a corrupted sum
	opRetry     = 3 // let the catch-up retry timer fire at least once
)

// FuzzSyncChunks drives one requester through a state-sync transfer: an
// offer, then chunk arrivals and retry ticks, checked against a model that
// holds one counter — how many chunks were accepted. The serving peer never
// answers, so every chunk comes from the input.
//
// Input: data[0] sizes the snapshot (4 bytes a step), data[1] picks the
// chunk size (64..256), data[2]%4 == 3 makes the offer declare one chunk
// too many, and every later byte is one op.
func FuzzSyncChunks(f *testing.F) {
	ops := func(b ...byte) []byte { return b }
	chunk := func(kind, off byte) byte { return kind | off<<2 } // off 1 is the count
	inOrder := ops(chunk(opChunk, 1), chunk(opChunk, 1), chunk(opChunk, 1), chunk(opChunk, 1))
	// 100 bytes in chunks of 64: two chunks of 64 and 36.
	f.Add(append([]byte{100, 0, 0}, inOrder...))
	// 1000 bytes in 256s: four chunks; the second is lost and a retry asks
	// for it again.
	f.Add(append([]byte{250, 3, 0}, chunk(opChunk, 1), opRetry, chunk(opChunk, 1), chunk(opChunk, 1), chunk(opChunk, 1)))
	// A late duplicate of chunk 0 after chunk 1 was asked for.
	f.Add(append([]byte{250, 3, 0}, chunk(opChunk, 1), chunk(opChunk, 0), chunk(opChunk, 1), chunk(opChunk, 1), chunk(opChunk, 1)))
	// Corrupt chunks at the count, of either kind, then the right one.
	f.Add(append([]byte{250, 3, 0}, chunk(opWrongSum, 1), chunk(opWrongSize, 1), opRetry, chunk(opChunk, 1),
		chunk(opChunk, 1), chunk(opChunk, 1), chunk(opChunk, 1)))
	// An offer declaring one chunk too many, then chunks and a retry.
	f.Add(append([]byte{250, 3, 3}, chunk(opChunk, 1), opRetry, chunk(opChunk, 1)))
	// An empty snapshot still ships one chunk of one byte.
	f.Add([]byte{0, 1, 0, chunk(opChunk, 1), opRetry})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		bytes, chunkBytes := int(data[0])*4, 64*(1+int(data[1]%4))
		chunks := 1
		if bytes > 0 {
			chunks = (bytes + chunkBytes - 1) / chunkBytes
		}
		badOffer := data[2]%4 == 3
		if len(data) > 3+4*chunks {
			data = data[:3+4*chunks] // enough ops to finish, and a few more
		}

		s := sim.New(1)
		// Zero latency: a request arrives in the window it was sent in.
		net := netsim.New(s, netsim.Config{})
		validators := []wire.NodeID{0, 1, 2, 3}
		reg := setcrypto.NewRegistry()
		reg.Register(0, setcrypto.FastKeyPair(0).Public)
		pool := mempool.New(0, s, net, validators[1:], mempool.PaperConfig(), nil, nil)
		n := NewNode(0, validators, s, net, PaperParams(), setcrypto.FastSuite{}, setcrypto.FastKeyPair(0), reg, pool)
		syncer := &stubSyncer{}
		n.SetStateSyncer(syncer)
		n.BreakHeaderBindForTest()
		net.AddNode(0, func(from wire.NodeID, payload any, _ int) { n.Receive(from, payload) })
		var asked []int // Seq of every chunk request the serving peer got
		for _, id := range validators[1:] {
			net.AddNode(id, func(_ wire.NodeID, payload any, _ int) {
				if r, ok := payload.(*SyncChunkRequest); ok {
					asked = append(asked, r.Seq)
				}
			})
		}

		// A vote two heights ahead arms catch-up (and its retry timer).
		n.Receive(1, &Vote{Height: 3, Type: VotePrecommit, Voter: 1})
		last := checkpoint.Checkpoint{Epoch: 4, Height: 10, Elements: 7, Digest: 99}
		snap := &checkpoint.Snapshot{Last: last, Chain: []checkpoint.Checkpoint{last}, Bytes: bytes}
		fold := checkpoint.FoldChain(snap.Chain)
		declared := chunks
		if badOffer {
			declared++
		}
		n.Receive(1, &SyncOffer{Snapshot: snap, Chunks: declared, ChunkBytes: chunkBytes})

		count, installed := 0, false
		if badOffer {
			if n.SyncRejects() != 1 {
				t.Fatalf("offer of %d chunks for %d bytes in %d: SyncRejects = %d, want 1",
					declared, bytes, chunkBytes, n.SyncRejects())
			}
		} else if n.SyncRejects() != 0 {
			t.Fatalf("good offer rejected")
		}
		fetching := func() bool { return !badOffer && !installed }
		// run advances virtual time and checks the chunk requests that
		// arrived: accepted more from the op itself, plus one per retry that
		// fired, each asking for the chunk at the count.
		run := func(d time.Duration, accepted int) {
			reqs := n.CatchupRequests()
			asked = asked[:0]
			s.RunUntil(s.Now() + d)
			want := 0
			if fetching() {
				want = accepted + int(n.CatchupRequests()-reqs)
			}
			if len(asked) != want {
				t.Fatalf("count %d: %d chunk requests, want %d", count, len(asked), want)
			}
			for _, seq := range asked {
				if seq != count {
					t.Fatalf("count %d: chunk %d requested", count, seq)
				}
			}
		}
		run(100*time.Millisecond, 1)

		for _, op := range data[3:] {
			kind := op & 3
			if kind == opRetry {
				reqs := n.CatchupRequests()
				run(40*time.Second, 0)
				if fetching() && n.CatchupRequests() == reqs {
					t.Fatalf("count %d: no retry fired in 40 s", count)
				}
				continue
			}
			seq := count + int(op>>2&3) - 1
			size := max(min(bytes-seq*chunkBytes, chunkBytes), 1)
			sum := chunkSum(fold, seq, size)
			switch kind {
			case opWrongSize:
				size++
			case opWrongSum:
				sum++
			}
			n.Receive(1, &SyncChunk{Epoch: last.Epoch, Fold: fold, Seq: seq, Size: size, Sum: sum})
			accepted := 0
			if fetching() && seq == count && kind == opChunk {
				count++
				if count == chunks {
					installed = true
				} else {
					accepted = 1
				}
			}
			if got := len(syncer.installs); got > 1 || (got == 1) != installed {
				t.Fatalf("count %d of %d: %d installs, want installed=%v", count, chunks, got, installed)
			}
			run(100*time.Millisecond, accepted)
		}
		if installed && (syncer.installs[0] != snap || n.HeightCommitted() != last.Height) {
			t.Fatalf("install: height committed %d, want %d", n.HeightCommitted(), last.Height)
		}
	})
}
