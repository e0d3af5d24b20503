// Registry: a digital-credential registry (the paper's motivating use
// case: MIT digital diplomas, government registries) on a Compresschain
// Setchain. Credentials issued by a university are unordered within an
// epoch — only the epoch barrier matters — and any verifier can check a
// credential against a single registry server using f+1 epoch-proofs,
// even when one registry server is Byzantine and serves corrupted proofs.
//
//	go run ./examples/registry
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"repro/setchain"
)

// Credential is the document anchored in the Setchain.
type Credential struct {
	Student string `json:"student"`
	Degree  string `json:"degree"`
	Year    int    `json:"year"`
}

func main() {
	net, err := setchain.New(setchain.Config{
		Algorithm:     setchain.Compresschain,
		Servers:       4,
		CollectorSize: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Server 3 is Byzantine: it signs garbage epoch hashes. Verification
	// must still succeed via the f+1 = 2 correct proofs rule.
	if err := net.SetByzantine(3, &setchain.Byzantine{CorruptProofs: true}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("credential registry: %d servers, f=%d, server 3 Byzantine (corrupt proofs)\n",
		net.Servers(), net.F())

	// The university issues a batch of diplomas through its local server.
	grads := []Credential{
		{"Ada Lovelace", "MSc Computer Science", 2026},
		{"Alan Turing", "PhD Mathematics", 2026},
		{"Grace Hopper", "MSc Applied Physics", 2026},
		{"Barbara Liskov", "PhD Computer Science", 2026},
		{"Tim Berners-Lee", "BSc Engineering", 2026},
	}
	ids := make(map[string]setchain.ElementID)
	for _, c := range grads {
		doc, _ := json.Marshal(c)
		id, err := net.Client(1).Add(doc)
		if err != nil {
			log.Fatalf("issue %s: %v", c.Student, err)
		}
		ids[c.Student] = id
		fmt.Printf("issued: %-16s %s (%d) -> %v\n", c.Student, c.Degree, c.Year, id)
	}

	if !net.RunUntilSettled(3 * time.Minute) {
		log.Fatal("registry did not settle")
	}
	fmt.Printf("\nall %d credentials committed by t=%v\n", len(grads), net.Now())

	// An employer verifies Ada's diploma by querying ONE server — and it
	// can even be the Byzantine one, because the f+1 proof check exposes
	// any tampering with proofs while the correct proofs still verify.
	for _, askServer := range []int{2, 3} {
		epoch, err := net.Client(1).Confirm(askServer, ids["Ada Lovelace"])
		if err != nil {
			log.Fatalf("verify against server %d: %v", askServer, err)
		}
		fmt.Printf("verifier (via server %d): Ada Lovelace's diploma is in epoch %d — VALID\n",
			askServer, epoch)
	}

	// A forged credential that was never issued cannot be confirmed.
	fake := setchain.ElementID{0xde, 0xad}
	if _, err := net.Client(1).Confirm(2, fake); err == nil {
		log.Fatal("forged credential verified?!")
	} else {
		fmt.Printf("forged credential rejected: %v\n", err)
	}

	// Epoch barriers give the registry a revocation-friendly timeline:
	// "issued no later than epoch k" without ordering individual diplomas.
	hist := net.History(0)
	fmt.Printf("\nregistry timeline: %d epochs\n", len(hist))
	for _, ep := range hist {
		if len(ep.Elements) > 0 {
			fmt.Printf("  epoch %d: %d credential(s)\n", ep.Number, len(ep.Elements))
		}
	}
	if err := net.Check(); err != nil {
		log.Fatal(err)
	}
}
