package collector

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

func elem(i int) *wire.Element {
	e := &wire.Element{Size: 438}
	e.ID[0] = byte(i)
	e.ID[1] = byte(i >> 8)
	return e
}

func proof(epoch uint64) *wire.EpochProof {
	return &wire.EpochProof{Epoch: epoch, Sig: make([]byte, 64)}
}

func TestFlushBySize(t *testing.T) {
	s := sim.New(1)
	var got []*wire.Batch
	c := New(s, 5, func(b *wire.Batch) { got = append(got, b) })
	s.After(0, func() {
		for i := 0; i < 12; i++ {
			c.AddElement(elem(i))
		}
	})
	s.RunUntil(10 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("flushes = %d, want 2 full batches", len(got))
	}
	for _, b := range got {
		if b.Len() != 5 {
			t.Fatalf("batch size = %d, want 5", b.Len())
		}
	}
	if c.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", c.Pending())
	}
}

func TestFlushByTimeout(t *testing.T) {
	s := sim.New(1)
	var got []*wire.Batch
	var at time.Duration
	c := New(s, 100, func(b *wire.Batch) {
		got = append(got, b)
		at = s.Now()
	})
	s.After(0, func() { c.AddElement(elem(1)) })
	s.Run()
	if len(got) != 1 {
		t.Fatalf("flushes = %d, want 1", len(got))
	}
	if at != 500*time.Millisecond {
		t.Fatalf("timeout flush at %v, want 500ms", at)
	}
}

func TestTimeoutTimerResetAfterSizeFlush(t *testing.T) {
	s := sim.New(1)
	var flushes int
	c := New(s, 2, func(b *wire.Batch) { flushes++ })
	s.After(0, func() {
		c.AddElement(elem(1))
		c.AddElement(elem(2)) // size flush; timer must be canceled
	})
	s.Run()
	if flushes != 1 {
		t.Fatalf("flushes = %d, want exactly 1 (no empty timeout flush)", flushes)
	}
}

func TestProofsCountTowardLimit(t *testing.T) {
	s := sim.New(1)
	var got *wire.Batch
	c := New(s, 3, func(b *wire.Batch) { got = b })
	s.After(0, func() {
		c.AddElement(elem(1))
		c.AddProof(proof(1))
		c.AddProof(proof(2))
	})
	s.RunUntil(time.Millisecond)
	if got == nil {
		t.Fatal("mixed batch did not flush at limit")
	}
	if len(got.Elements) != 1 || len(got.Proofs) != 2 {
		t.Fatalf("batch = %d elems %d proofs, want 1/2", len(got.Elements), len(got.Proofs))
	}
}

func TestManualFlushAndEmptyFlushNoop(t *testing.T) {
	s := sim.New(1)
	var flushes int
	c := New(s, 100, func(b *wire.Batch) { flushes++ })
	c.Flush() // empty: no-op
	if flushes != 0 {
		t.Fatal("empty flush produced a batch")
	}
	s.After(0, func() {
		c.AddElement(elem(1))
		c.Flush()
		c.Flush() // second flush has nothing
	})
	s.Run()
	if flushes != 1 {
		t.Fatalf("flushes = %d, want 1", flushes)
	}
}

func TestBadConstruction(t *testing.T) {
	s := sim.New(1)
	for _, fn := range []func(){
		func() { New(s, 0, func(*wire.Batch) {}) },
		func() { New(s, 10, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: for any add sequence, no element is lost or duplicated across
// flushed batches plus the pending batch.
func TestQuickNoLossNoDup(t *testing.T) {
	f := func(adds uint16, limit uint8) bool {
		n := int(adds)%500 + 1
		lim := int(limit)%50 + 1
		s := sim.New(1)
		var flushed []*wire.Batch
		c := New(s, lim, func(b *wire.Batch) { flushed = append(flushed, b) })
		s.After(0, func() {
			for i := 0; i < n; i++ {
				c.AddElement(elem(i))
			}
			c.Flush()
		})
		s.Run()
		seen := make(map[wire.ElementID]bool)
		total := 0
		for _, b := range flushed {
			for _, e := range b.Elements {
				if seen[e.ID] {
					return false
				}
				seen[e.ID] = true
				total++
			}
		}
		return total == n && c.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
