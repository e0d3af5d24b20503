// Token: the paper's Appendix G extension in action — a fully functional
// blockchain built on the Setchain. Transfers are validated optimistically
// in parallel while epochs form; once an epoch consolidates, its
// transactions execute sequentially at their final positions and
// semantically invalid ones (overdrafts) are marked void. Every server
// replays the same history to the same balances.
//
//	go run ./examples/token
package main

import (
	"fmt"
	"log"
	"time"

	"repro/examples/token/execution"
	"repro/setchain"
)

func main() {
	net, err := setchain.New(setchain.Config{
		Algorithm:     setchain.Hashchain,
		Servers:       4,
		CollectorSize: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	genesis := map[string]uint64{"alice": 100, "bob": 50}
	fmt.Printf("token chain on a %d-server Setchain; genesis: alice=100 bob=50\n", net.Servers())

	// Submit transfers, including a deliberate overdraft: it will be
	// ordered into an epoch but voided at execution.
	transfers := []execution.Transfer{
		{From: "alice", To: "bob", Amount: 30},   // ok
		{From: "bob", To: "carol", Amount: 70},   // ok only if the previous one lands first
		{From: "carol", To: "alice", Amount: 65}, // ok after the above
		{From: "alice", To: "bob", Amount: 9999}, // overdraft -> void
		{From: "bob", To: "carol", Amount: 10},   // ok
	}
	for i, tr := range transfers {
		if _, err := net.Client(i % 4).Add(execution.EncodeTransfer(tr)); err != nil {
			log.Fatalf("transfer %d: %v", i, err)
		}
		net.Run(600 * time.Millisecond) // keep the intended order across epochs
	}
	if !net.RunUntilSettled(3 * time.Minute) {
		log.Fatal("transfers did not settle")
	}

	// Optimistic validation (Appendix G step 1): each ordered transaction
	// is checked in isolation, in parallel, ignoring balances.
	for _, ep := range net.History(0) {
		valid := execution.ValidateParallel(ep.Elements, 0)
		for i, ok := range valid {
			if !ok {
				log.Fatalf("epoch %d element %d failed optimistic validation", ep.Number, i)
			}
		}
	}

	// Each server independently executes its consolidated history.
	states := make([]*execution.State, net.Servers())
	for srv := 0; srv < net.Servers(); srv++ {
		st, err := execution.Replay(genesis, net.History(srv))
		if err != nil {
			log.Fatalf("server %d replay: %v", srv, err)
		}
		states[srv] = st
	}
	// Determinism across servers: identical balances and void sets.
	for srv := 1; srv < len(states); srv++ {
		if !states[0].Equal(states[srv]) {
			log.Fatalf("server %d state diverged", srv)
		}
	}

	st := states[0]
	executed, voided, rejected := st.Counters()
	fmt.Printf("executed=%d voided=%d rejected=%d across %d epochs\n",
		executed, voided, rejected, st.EpochsExecuted())
	for _, acct := range []string{"alice", "bob", "carol"} {
		fmt.Printf("  %-6s balance %d\n", acct, st.Balance(acct))
	}
	if st.TotalSupply() != 150 {
		log.Fatalf("supply not conserved: %d", st.TotalSupply())
	}
	if voided != 1 {
		log.Fatalf("expected exactly the overdraft voided, got %d", voided)
	}
	if err := net.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("supply conserved, overdraft voided, all servers agree — blockchain semantics on Setchain")
}
