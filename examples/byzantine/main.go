// Byzantine: demonstrates the fault scenarios Hashchain is built to
// survive. One of four servers misbehaves in escalating ways — injecting
// invalid elements, refusing to serve batch contents, and corrupting
// epoch-proofs — while honest clients' elements keep committing and the
// forged ones never do.
//
//	go run ./examples/byzantine
package main

import (
	"fmt"
	"log"
	"time"

	"repro/setchain"
)

func main() {
	net, err := setchain.New(setchain.Config{
		Algorithm:     setchain.Hashchain,
		Servers:       4,
		CollectorSize: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	const evil = 3
	if err := net.SetByzantine(evil, &setchain.Byzantine{
		// Stuff every batch with invalid elements (no valid client
		// signature). Correct servers must filter them in FinalizeBlock.
		InjectBogusElements: 3,
		// Refuse to serve batch contents to anyone: this server's batches
		// can never be validated, so they never gather f+1 signatures and
		// never consolidate into epochs.
		RefuseServe: func(to int, hash []byte) bool { return true },
		// Sign wrong epoch hashes: its epoch-proofs are rejected by
		// servers and clients alike.
		CorruptProofs: true,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-server Hashchain, server %d fully Byzantine (f=%d tolerated)\n", evil, net.F())

	// Honest clients use the three correct servers.
	var ids []setchain.ElementID
	for i := 0; i < 18; i++ {
		id, err := net.Client(i % 3).Add([]byte(fmt.Sprintf("honest-tx-%02d", i)))
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
		net.Run(150 * time.Millisecond)
	}
	net.Run(90 * time.Second)

	// Every honest element is committed and verifiable through any correct
	// server with f+1 valid proofs — the Byzantine server's corrupt proofs
	// simply don't count.
	committed := 0
	for _, id := range ids {
		if _, err := net.Client(0).Confirm(1, id); err == nil {
			committed++
		}
	}
	fmt.Printf("honest elements committed & verified: %d/%d\n", committed, len(ids))
	if committed != len(ids) {
		log.Fatal("Byzantine server prevented honest progress")
	}

	// No forged element leaked into a correct server's history, and the
	// correct servers' histories agree epoch by epoch (Consistent-Gets)
	// despite the ongoing attack: Check runs the safety checker every
	// evaluation scenario ends with over servers 0-2.
	if err := net.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("forged elements in correct servers' epochs: 0")
	fmt.Println("correct servers agree on every epoch — all Setchain properties held under attack")
}
