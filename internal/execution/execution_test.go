package execution

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/wire"
)

func elemWithTransfer(i int, t Transfer) *wire.Element {
	hdr := wire.Element{Size: 100}
	hdr.ID[0] = byte(i)
	hdr.ID[1] = byte(i >> 8)
	return hdr.WithBody(EncodeTransfer(t), nil)
}

func epoch(n uint64, elems ...*wire.Element) *core.Epoch {
	return &core.Epoch{Number: n, Elements: elems}
}

func TestTransferRoundTrip(t *testing.T) {
	in := Transfer{From: "alice", To: "bob", Amount: 42}
	out, err := DecodeTransfer(EncodeTransfer(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestDecodeTransferErrors(t *testing.T) {
	if _, err := DecodeTransfer(nil); err != ErrNotTransfer {
		t.Fatalf("nil payload: %v", err)
	}
	if _, err := DecodeTransfer([]byte{0x00, 1, 2}); err != ErrNotTransfer {
		t.Fatalf("wrong magic: %v", err)
	}
	enc := EncodeTransfer(Transfer{From: "a", To: "b", Amount: 1})
	for _, cut := range []int{1, 3, 6, len(enc) - 1} {
		if _, err := DecodeTransfer(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestApplyEpochBasics(t *testing.T) {
	st := NewState(map[string]uint64{"alice": 100})
	receipts, err := st.ApplyEpoch(epoch(1,
		elemWithTransfer(1, Transfer{From: "alice", To: "bob", Amount: 60}),
		elemWithTransfer(2, Transfer{From: "bob", To: "carol", Amount: 10}),
	))
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != Applied || receipts[1].Status != Applied {
		t.Fatalf("receipts: %+v", receipts)
	}
	if st.Balance("alice") != 40 || st.Balance("bob") != 50 || st.Balance("carol") != 10 {
		t.Fatalf("balances wrong: a=%d b=%d c=%d",
			st.Balance("alice"), st.Balance("bob"), st.Balance("carol"))
	}
}

func TestVoidMarking(t *testing.T) {
	// Appendix G: a transaction invalid at its final position is marked
	// void, not dropped — and later transactions still execute.
	st := NewState(map[string]uint64{"alice": 50})
	receipts, err := st.ApplyEpoch(epoch(1,
		elemWithTransfer(1, Transfer{From: "alice", To: "bob", Amount: 80}), // void
		elemWithTransfer(2, Transfer{From: "alice", To: "bob", Amount: 30}), // applies
	))
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != Void {
		t.Fatalf("overdraft status = %v, want void", receipts[0].Status)
	}
	if receipts[1].Status != Applied {
		t.Fatalf("second transfer = %v, want applied", receipts[1].Status)
	}
	if st.Balance("alice") != 20 || st.Balance("bob") != 30 {
		t.Fatal("void transaction affected balances")
	}
	_, voided, _ := st.Counters()
	if voided != 1 {
		t.Fatalf("voided = %d, want 1", voided)
	}
	if r, ok := st.Receipt(receipts[0].Element); !ok || r.Status != Void || r.Reason == "" {
		t.Fatalf("void receipt not queryable: %+v ok=%v", r, ok)
	}
}

func TestOrderWithinEpochMatters(t *testing.T) {
	// Sequential execution at final positions: the same two transfers in
	// opposite orders yield different void sets.
	mk := func(first, second Transfer) *State {
		st := NewState(map[string]uint64{"a": 10})
		st.ApplyEpoch(epoch(1,
			elemWithTransfer(1, first),
			elemWithTransfer(2, second),
		))
		return st
	}
	fund := Transfer{From: "a", To: "b", Amount: 10}
	spend := Transfer{From: "b", To: "c", Amount: 5}
	ok := mk(fund, spend)  // b funded before spending
	bad := mk(spend, fund) // b spends before funded -> void
	if _, v, _ := ok.Counters(); v != 0 {
		t.Fatal("fund-then-spend voided")
	}
	if _, v, _ := bad.Counters(); v != 1 {
		t.Fatal("spend-before-fund not voided")
	}
}

func TestRejectedPayloads(t *testing.T) {
	st := NewState(nil)
	junk := wire.Element{Size: 14}.WithBody([]byte("not a transfer"), nil)
	selfSend := elemWithTransfer(2, Transfer{From: "x", To: "x", Amount: 5})
	zero := elemWithTransfer(3, Transfer{From: "x", To: "y", Amount: 0})
	receipts, err := st.ApplyEpoch(epoch(1, junk, selfSend, zero))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range receipts {
		if r.Status != Rejected {
			t.Fatalf("receipt %d = %v, want rejected", i, r.Status)
		}
	}
}

func TestEpochOrderEnforced(t *testing.T) {
	st := NewState(nil)
	if _, err := st.ApplyEpoch(epoch(2)); err == nil {
		t.Fatal("epoch 2 applied before epoch 1")
	}
	if _, err := st.ApplyEpoch(epoch(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyEpoch(epoch(1)); err == nil {
		t.Fatal("epoch 1 applied twice")
	}
}

func TestReplayDeterminism(t *testing.T) {
	genesis := map[string]uint64{"a": 1000, "b": 500}
	var history []*core.Epoch
	for n := uint64(1); n <= 10; n++ {
		var elems []*wire.Element
		for k := 0; k < 20; k++ {
			from, to := "a", "b"
			if (int(n)+k)%3 == 0 {
				from, to = "b", "a"
			}
			elems = append(elems, elemWithTransfer(int(n)*100+k,
				Transfer{From: from, To: to, Amount: uint64(k%7) + 1}))
		}
		history = append(history, epoch(n, elems...))
	}
	s1, err := Replay(genesis, history)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Replay(genesis, history)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2) {
		t.Fatal("replays diverge")
	}
	if s1.TotalSupply() != 1500 {
		t.Fatalf("supply = %d, want 1500 (conservation)", s1.TotalSupply())
	}
}

func TestValidateParallelMatchesSequential(t *testing.T) {
	var elems []*wire.Element
	for i := 0; i < 500; i++ {
		switch i % 4 {
		case 0:
			elems = append(elems, elemWithTransfer(i, Transfer{From: "a", To: "b", Amount: 1}))
		case 1:
			elems = append(elems, wire.Element{}.WithBody([]byte("garbage"), nil))
		case 2:
			elems = append(elems, elemWithTransfer(i, Transfer{From: "a", To: "a", Amount: 1}))
		default:
			elems = append(elems, nil)
		}
	}
	seq := ValidateParallel(elems, 1)
	for _, workers := range []int{0, 2, 7, 64, 1000} {
		par := ValidateParallel(elems, workers)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d differs from sequential", workers)
		}
	}
	for i, ok := range seq {
		want := i%4 == 0
		if ok != want {
			t.Fatalf("element %d validity = %v, want %v", i, ok, want)
		}
	}
}

func TestValidateParallelEmpty(t *testing.T) {
	if out := ValidateParallel(nil, 4); len(out) != 0 {
		t.Fatal("non-empty result for empty input")
	}
}

func TestStatusString(t *testing.T) {
	if Applied.String() != "applied" || Void.String() != "void" || Rejected.String() != "rejected" {
		t.Fatal("status strings wrong")
	}
}

// Property: total supply is conserved by any transfer sequence, and void +
// applied + rejected receipts account for every transaction.
func TestQuickSupplyConservation(t *testing.T) {
	accounts := []string{"a", "b", "c", "d"}
	f := func(moves []uint16) bool {
		st := NewState(map[string]uint64{"a": 10_000, "b": 10_000})
		var elems []*wire.Element
		for i, m := range moves {
			from := accounts[int(m)%len(accounts)]
			to := accounts[int(m>>2)%len(accounts)]
			elems = append(elems, elemWithTransfer(i,
				Transfer{From: from, To: to, Amount: uint64(m%997) + 1}))
		}
		if _, err := st.ApplyEpoch(epoch(1, elems...)); err != nil {
			return false
		}
		ex, v, rej := st.Counters()
		return st.TotalSupply() == 20_000 && ex+v+rej == uint64(len(moves))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: replaying any prefix then the suffix equals replaying the whole
// history (state is a pure fold over epochs).
func TestQuickReplayComposition(t *testing.T) {
	f := func(seed uint8, split uint8) bool {
		genesis := map[string]uint64{"x": 5000, "y": 5000}
		var history []*core.Epoch
		for n := uint64(1); n <= 6; n++ {
			var elems []*wire.Element
			for k := 0; k < int(seed)%10+1; k++ {
				from, to := "x", "y"
				if (int(seed)+k)%2 == 0 {
					from, to = to, from
				}
				elems = append(elems, elemWithTransfer(int(n)*50+k,
					Transfer{From: from, To: to, Amount: uint64(seed)%100 + 1}))
			}
			history = append(history, epoch(n, elems...))
		}
		whole, err := Replay(genesis, history)
		if err != nil {
			return false
		}
		cut := int(split) % len(history)
		part := NewState(genesis)
		for _, ep := range history[:cut] {
			if _, err := part.ApplyEpoch(ep); err != nil {
				return false
			}
		}
		for _, ep := range history[cut:] {
			if _, err := part.ApplyEpoch(ep); err != nil {
				return false
			}
		}
		return whole.Equal(part)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkValidateParallel(b *testing.B) {
	var elems []*wire.Element
	for i := 0; i < 10_000; i++ {
		elems = append(elems, elemWithTransfer(i, Transfer{
			From: fmt.Sprintf("acct-%d", i%100), To: "sink", Amount: uint64(i + 1),
		}))
	}
	for _, workers := range []int{1, 4, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ValidateParallel(elems, workers)
			}
		})
	}
}
