package setchain_test

import (
	"fmt"
	"testing"
	"time"

	"repro/setchain"
)

func TestQuickstartFlow(t *testing.T) {
	for _, alg := range []setchain.Algorithm{setchain.Vanilla, setchain.Compresschain, setchain.Hashchain} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			net, err := setchain.New(setchain.Config{Algorithm: alg, Servers: 4, CollectorSize: 5})
			if err != nil {
				t.Fatal(err)
			}
			id, err := net.Client(0).Add([]byte("hello setchain"))
			if err != nil {
				t.Fatal(err)
			}
			if !net.RunUntilSettled(2 * time.Minute) {
				t.Fatal("element never settled")
			}
			// Confirm against a different server than the one used to add.
			epoch, err := net.Client(0).Confirm(2, id)
			if err != nil {
				t.Fatalf("Confirm: %v", err)
			}
			if epoch == 0 {
				t.Fatal("epoch = 0")
			}
			if !net.Client(0).InSet(1, id) {
				t.Fatal("element missing from the_set")
			}
			if ep := net.Client(0).Find(3, id); ep == nil || ep.Number != epoch {
				t.Fatal("Find disagrees with Confirm")
			}
			if err := net.Check(); err != nil {
				t.Fatalf("Check: %v", err)
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := setchain.New(setchain.Config{Servers: -1}); err == nil {
		t.Fatal("negative servers accepted")
	}
}

// Bad input is an error from New, at once: a negative collector size used
// to panic inside the collector.
func TestConfigRejectsNegatives(t *testing.T) {
	cases := map[string]setchain.Config{
		"CollectorSize": {Algorithm: setchain.Hashchain, CollectorSize: -1},
		"NetworkDelay":  {NetworkDelay: -time.Millisecond},
		"Servers":       {Servers: -4},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := setchain.New(cfg)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("New(%+v) accepted", cfg)
				}
			case <-time.After(time.Second):
				t.Fatalf("New(%+v) did not return within a second", cfg)
			}
		})
	}
}

func TestDefaults(t *testing.T) {
	net, err := setchain.New(setchain.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if net.Servers() != 4 || net.F() != 1 {
		t.Fatalf("defaults: n=%d f=%d, want 4/1", net.Servers(), net.F())
	}
}

func TestManyClientsManyElements(t *testing.T) {
	net, err := setchain.New(setchain.Config{Algorithm: setchain.Hashchain, Servers: 4, CollectorSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	var ids []setchain.ElementID
	for i := 0; i < 40; i++ {
		id, err := net.Client(i % 4).Add([]byte(fmt.Sprintf("item-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		net.Run(100 * time.Millisecond)
	}
	if !net.RunUntilSettled(3 * time.Minute) {
		t.Fatalf("settled %d of %d", net.Committed(), net.Added())
	}
	for _, id := range ids {
		if _, err := net.Client(0).Confirm(1, id); err != nil {
			t.Fatalf("Confirm(%v): %v", id, err)
		}
	}
	// Histories agree across servers (Consistent-Gets), among the rest.
	if err := net.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestDuplicateAddRejectedThroughAPI(t *testing.T) {
	net, err := setchain.New(setchain.Config{Servers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Same payload from the same client yields distinct elements (distinct
	// sequence numbers), so both succeed.
	a, err := net.Client(0).Add([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Client(0).Add([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two adds produced the same element id")
	}
}

func TestByzantineServerThroughAPI(t *testing.T) {
	net, err := setchain.New(setchain.Config{Algorithm: setchain.Hashchain, Servers: 4, CollectorSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetByzantine(3, &setchain.Byzantine{
		RefuseServe:         func(int, []byte) bool { return true },
		InjectBogusElements: 2,
	}); err != nil {
		t.Fatal(err)
	}
	var ids []setchain.ElementID
	for i := 0; i < 12; i++ {
		id, err := net.Client(i % 3).Add([]byte(fmt.Sprintf("honest-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		net.Run(200 * time.Millisecond)
	}
	net.Run(60 * time.Second)
	for _, id := range ids {
		if _, err := net.Client(0).Confirm(1, id); err != nil {
			t.Fatalf("honest element not confirmed under Byzantine server: %v", err)
		}
	}
	if err := net.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestDeterministicSeeds(t *testing.T) {
	run := func() uint64 {
		net, _ := setchain.New(setchain.Config{Algorithm: setchain.Compresschain, Servers: 4, Seed: 9})
		for i := 0; i < 10; i++ {
			net.Client(i % 4).Add([]byte(fmt.Sprintf("d-%d", i)))
		}
		net.RunUntilSettled(time.Minute)
		return net.Committed()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different outcomes: %d vs %d", a, b)
	}
}

func TestClockOnlyAdvancesWhenRun(t *testing.T) {
	net, _ := setchain.New(setchain.Config{Servers: 4})
	t0 := net.Now()
	net.Client(0).Add([]byte("static"))
	if net.Now() != t0 {
		t.Fatal("Add advanced virtual time")
	}
	net.Run(3 * time.Second)
	if net.Now() != t0+3*time.Second {
		t.Fatalf("Now = %v, want %v", net.Now(), t0+3*time.Second)
	}
}

func TestNetworkDelayConfig(t *testing.T) {
	// A WAN-like deployment still settles, just slower than the LAN one.
	lan, err := setchain.New(setchain.Config{Servers: 4, CollectorSize: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wan, err := setchain.New(setchain.Config{Servers: 4, CollectorSize: 5, Seed: 3,
		NetworkDelay: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	settle := func(n *setchain.Network) time.Duration {
		if _, err := n.Client(0).Add([]byte("timed")); err != nil {
			t.Fatal(err)
		}
		if !n.RunUntilSettled(2 * time.Minute) {
			t.Fatal("never settled")
		}
		return n.Now()
	}
	tLan, tWan := settle(lan), settle(wan)
	if tWan <= tLan {
		t.Fatalf("WAN settle (%v) not slower than LAN (%v)", tWan, tLan)
	}
}

// A server index outside [0, Servers) is an error or a zero value, never a
// panic: Add and Confirm return an error, the read-only queries return
// their zero value, and SetByzantine refuses it.
func TestServerIndexOutOfRange(t *testing.T) {
	net, err := setchain.New(setchain.Config{Servers: 4, CollectorSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	id, err := net.Client(0).Add([]byte("in range"))
	if err != nil {
		t.Fatal(err)
	}
	if !net.RunUntilSettled(time.Minute) {
		t.Fatal("never settled")
	}
	for _, bad := range []int{-1, 4, 7} {
		if _, err := net.Client(bad).Add([]byte("x")); err == nil {
			t.Errorf("Client(%d).Add accepted", bad)
		}
		if _, err := net.Client(bad).Confirm(1, id); err == nil {
			t.Errorf("Client(%d).Confirm accepted", bad)
		}
		if _, err := net.Client(0).Confirm(bad, id); err == nil {
			t.Errorf("Confirm(%d, …) accepted", bad)
		}
		if net.Client(0).InSet(bad, id) || net.Client(0).Find(bad, id) != nil {
			t.Errorf("InSet/Find(%d) found the element", bad)
		}
		if net.History(bad) != nil || net.EpochCount(bad) != 0 {
			t.Errorf("History/EpochCount(%d) not zero", bad)
		}
		if err := net.SetByzantine(bad, &setchain.Byzantine{CorruptProofs: true}); err == nil {
			t.Errorf("SetByzantine(%d) accepted", bad)
		}
	}
	if net.Added() != 1 {
		t.Fatalf("Added = %d after refused adds, want 1", net.Added())
	}
	if err := net.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// Server 0 is the observer whose commit record Check audits: it cannot be
// made Byzantine, the same rule the scenario road applies.
func TestObserverStaysCorrect(t *testing.T) {
	net, err := setchain.New(setchain.Config{Servers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetByzantine(0, &setchain.Byzantine{CorruptProofs: true}); err == nil {
		t.Fatal("SetByzantine(0, …) accepted")
	}
	if err := net.SetByzantine(1, &setchain.Byzantine{CorruptProofs: true}); err != nil {
		t.Fatalf("SetByzantine(1, …): %v", err)
	}
}
