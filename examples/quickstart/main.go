// Quickstart: spin up a 4-server Hashchain Setchain, add an element through
// one server, and verify — against a different server, trusting only the
// PKI — that it is committed with f+1 epoch-proofs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/setchain"
)

func main() {
	// Four servers tolerate f = 1 Byzantine server at the Setchain layer;
	// the deployment uses real ed25519 signatures and SHA-512 hashing on a
	// simulated cluster network with deterministic virtual time.
	net, err := setchain.New(setchain.Config{
		Algorithm:     setchain.Hashchain,
		Servers:       4,
		CollectorSize: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("started %d-server Hashchain Setchain (f=%d)\n", net.Servers(), net.F())

	// A client adds an element through server 0 (a single add request, as
	// the paper's epoch-proofs make safe).
	id, err := net.Client(0).Add([]byte("hello setchain"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("added element %v via server 0 at t=%v\n", id, net.Now())

	// Let the pipeline run: collector flush -> hash-batch on the ledger ->
	// peers recover & co-sign the batch -> f+1 signatures consolidate the
	// epoch -> servers publish epoch-proofs.
	if !net.RunUntilSettled(2 * time.Minute) {
		log.Fatal("element did not settle in time")
	}

	// Verify against server 2 — a server the client never talked to. The
	// client recomputes the epoch hash and checks f+1 signatures, so even a
	// Byzantine responder could not fake this.
	epoch, err := net.Client(0).Confirm(2, id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("element committed in epoch %d (confirmed with %d+ epoch-proofs) at t=%v\n",
		epoch, net.F()+1, net.Now())

	// The safety checker every evaluation scenario ends with holds too.
	if err := net.Check(); err != nil {
		log.Fatal(err)
	}

	// Every server reports the same epoch content (Consistent-Gets).
	for srv := 0; srv < net.Servers(); srv++ {
		ep := net.Client(0).Find(srv, id)
		fmt.Printf("  server %d: epoch %d holds %d element(s)\n", srv, ep.Number, len(ep.Elements))
	}
}
