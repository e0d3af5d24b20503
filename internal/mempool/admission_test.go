package mempool

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// admCfg is a pool of maxTxs transactions under the policy, saturating at
// 90 % and deferring up to 1,024 transactions for 5 s.
func admCfg(policy string, maxTxs int) Config {
	c := capped(maxTxs)
	c.Admission = AdmissionConfig{Policy: policy, Watermark: 0.9, MaxDelay: 5 * time.Second, MaxDeferred: 1024}
	return c
}

func fillPool(t *testing.T, p *Mempool, base, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !p.add(elemTx(base+i, 100), false) {
			t.Fatalf("fill tx %d not pooled", base+i)
		}
	}
}

func TestSaturatedWatermark(t *testing.T) {
	_, pools := newTestPools(t, 1, admCfg(AdmissionReject, 10))
	p := pools[0]
	fillPool(t, p, 1000, 8) // below 0.9*10
	if p.Saturated() {
		t.Fatal("saturated below the watermark")
	}
	fillPool(t, p, 2000, 1) // 9 = 0.9*10
	if !p.Saturated() {
		t.Fatal("not saturated at the watermark")
	}
}

func TestAdmissionOffNeverSaturates(t *testing.T) {
	_, pools := newTestPools(t, 1, capped(10))
	p := pools[0]
	fillPool(t, p, 1000, 10)
	if p.Saturated() {
		t.Fatal("closed-system pool reports saturation")
	}
	if !p.AdmitElement() {
		t.Fatal("closed-system pool refused an element")
	}
}

func TestRejectPolicyRefusesElements(t *testing.T) {
	_, pools := newTestPools(t, 1, admCfg(AdmissionReject, 10))
	p := pools[0]
	fillPool(t, p, 1000, 9)
	if p.AdmitElement() {
		t.Fatal("saturated reject-policy pool admitted an element")
	}
	rej, def, exp := p.AdmissionStats()
	if rej != 1 || def != 0 || exp != 0 {
		t.Fatalf("stats = %d/%d/%d, want 1/0/0", rej, def, exp)
	}
	// The headroom above the watermark still takes carrier transactions:
	// AddTx is not gated under the reject policy.
	if !p.AddTx(elemTx(1, 100)) {
		t.Fatal("carrier tx refused inside the watermark headroom")
	}
}

func TestBreakAdmissionForTest(t *testing.T) {
	_, pools := newTestPools(t, 1, admCfg(AdmissionReject, 10))
	p := pools[0]
	fillPool(t, p, 1000, 9)
	p.BreakAdmissionForTest()
	if p.Saturated() {
		t.Fatal("sabotaged gate still reports saturation")
	}
	if !p.AdmitElement() {
		t.Fatal("sabotaged gate still rejects")
	}
}

func TestDelayPolicyDefersAndDrains(t *testing.T) {
	s, pools := newTestPools(t, 1, admCfg(AdmissionDelay, 10))
	p := pools[0]
	var parked *wire.Tx
	s.After(0, func() {
		fillPool(t, p, 1000, 9)
		// Elements stay admitted under the delay promise...
		if !p.AdmitElement() {
			t.Error("delay policy refused an element with queue room")
		}
		// ...and the saturated submission parks instead of entering.
		parked = elemTx(1, 100)
		if !p.AddTx(parked) {
			t.Error("delay policy refused a deferrable tx")
		}
		if p.DeferredLen() != 1 {
			t.Errorf("deferred len = %d, want 1", p.DeferredLen())
		}
		if p.Has(parked.MapKey()) {
			t.Error("deferred tx entered the pool immediately")
		}
	})
	s.After(time.Second, func() {
		// A commit frees space; the drain must move the parked tx in.
		committed := p.Reap(1 << 20)[:5]
		p.RemoveCommitted(1, committed)
		if p.DeferredLen() != 0 {
			t.Errorf("deferred len after drain = %d, want 0", p.DeferredLen())
		}
		if !p.Has(parked.MapKey()) {
			t.Error("deferred tx missing from the pool after the drain")
		}
		_, def, exp := p.AdmissionStats()
		if def != 1 || exp != 0 {
			t.Errorf("stats deferred/expired = %d/%d, want 1/0", def, exp)
		}
	})
	s.RunUntil(10 * time.Second)
}

func TestDelayPolicyExpiresAtDeadline(t *testing.T) {
	s, pools := newTestPools(t, 1, admCfg(AdmissionDelay, 10))
	p := pools[0]
	tx := elemTx(1, 100)
	s.After(0, func() {
		fillPool(t, p, 1000, 9)
		if !p.AddTx(tx) {
			t.Error("deferrable tx refused")
		}
	})
	// No commit ever frees space: the 5 s MaxDelay must drop it.
	s.RunUntil(time.Minute)
	if p.DeferredLen() != 0 {
		t.Fatalf("deferred len = %d after the deadline, want 0", p.DeferredLen())
	}
	if p.Has(tx.MapKey()) {
		t.Fatal("expired tx entered the pool")
	}
	_, def, exp := p.AdmissionStats()
	if def != 1 || exp != 1 {
		t.Fatalf("stats deferred/expired = %d/%d, want 1/1", def, exp)
	}
}

func TestDelayQueueBounded(t *testing.T) {
	cfg := admCfg(AdmissionDelay, 10)
	cfg.Admission.MaxDeferred = 2
	s, pools := newTestPools(t, 1, cfg)
	p := pools[0]
	s.After(0, func() {
		fillPool(t, p, 1000, 9)
		if !p.AddTx(elemTx(1, 100)) || !p.AddTx(elemTx(2, 100)) {
			t.Error("first two deferrable txs refused")
		}
		if p.AddTx(elemTx(3, 100)) {
			t.Error("third tx accepted past MaxDeferred")
		}
		// With the queue full the element gate must close too.
		if p.AdmitElement() {
			t.Error("element admitted with the deferred queue full")
		}
		rej, def, _ := p.AdmissionStats()
		if rej != 2 || def != 2 {
			t.Errorf("stats rejected/deferred = %d/%d, want 2/2", rej, def)
		}
	})
	s.RunUntil(time.Second)
}
