package batchstore

import (
	"testing"

	"repro/internal/wire"
)

func batchOf(n int) *wire.Batch {
	b := &wire.Batch{}
	for i := 0; i < n; i++ {
		e := &wire.Element{Size: 438}
		e.ID[0] = byte(i)
		b.Elements = append(b.Elements, e)
	}
	return b
}

func TestRegisterAndGet(t *testing.T) {
	s := New()
	h := []byte("hash-1")
	b := batchOf(3)
	s.Register(h, b)
	if got := s.Get(h); got != b {
		t.Fatal("Get returned wrong batch")
	}
	if s.Get([]byte("missing")) != nil {
		t.Fatal("missing hash returned a batch")
	}
}

func TestReRegisterIsNoop(t *testing.T) {
	s := New()
	h := []byte("h")
	first := batchOf(1)
	s.Register(h, first)
	s.Register(h, batchOf(9))
	if s.Get(h) != first {
		t.Fatal("re-register replaced the original batch")
	}
}

func TestResponseWireSize(t *testing.T) {
	b := batchOf(10)
	r := &Response{Hash: []byte("h"), Found: true, Batch: b}
	if got := r.ResponseWireSize(); got != 96+b.RawSize() {
		t.Fatalf("size = %d, want %d", got, 96+b.RawSize())
	}
	empty := &Response{Found: false}
	if empty.ResponseWireSize() != 96 {
		t.Fatal("not-found response size wrong")
	}
}
