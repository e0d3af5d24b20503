// Command setchain-demo runs a full-fidelity Setchain deployment (real
// ed25519, SHA-512, DEFLATE) on the virtual-time simulator and narrates the
// life of a batch of elements: add -> batch -> ledger -> consolidation ->
// f+1 epoch-proofs -> client verification.
//
//	setchain-demo -alg hashchain -servers 7 -elements 50 -byzantine 1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/setchain"
)

func main() {
	algName := flag.String("alg", "hashchain", "vanilla | compresschain | hashchain")
	servers := flag.Int("servers", 4, "number of Setchain servers")
	elements := flag.Int("elements", 20, "elements to add")
	collector := flag.Int("collector", 10, "collector size c")
	byzantine := flag.Int("byzantine", 0, "number of Byzantine servers (must be <= f)")
	delay := flag.Duration("delay", 0, "artificial network delay (e.g. 30ms)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()

	var alg setchain.Algorithm
	switch *algName {
	case "vanilla":
		alg = setchain.Vanilla
	case "compresschain":
		alg = setchain.Compresschain
	case "hashchain":
		alg = setchain.Hashchain
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algName)
		os.Exit(2)
	}

	net, err := setchain.New(setchain.Config{
		Algorithm:     alg,
		Servers:       *servers,
		CollectorSize: *collector,
		NetworkDelay:  *delay,
		Seed:          *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	f := net.F()
	if *byzantine > f {
		log.Fatalf("%d Byzantine servers exceeds the tolerated f=%d", *byzantine, f)
	}
	for i := 0; i < *byzantine; i++ {
		srv := *servers - 1 - i
		if err := net.SetByzantine(srv, &setchain.Byzantine{
			InjectBogusElements: 2,
			RefuseServe:         func(int, []byte) bool { return true },
			CorruptProofs:       true,
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("server %d is Byzantine (injects junk, withholds batches, corrupts proofs)\n", srv)
	}
	fmt.Printf("%s on %d servers (f=%d), collector=%d, delay=%v, seed=%d\n\n",
		alg, *servers, f, *collector, *delay, *seed)

	honest := *servers - *byzantine
	var ids []setchain.ElementID
	start := time.Now()
	for i := 0; i < *elements; i++ {
		id, err := net.Client(i % honest).Add([]byte(fmt.Sprintf("element-%03d", i)))
		if err != nil {
			log.Fatalf("add %d: %v", i, err)
		}
		ids = append(ids, id)
		net.Run(100 * time.Millisecond)
	}
	fmt.Printf("added %d elements through %d correct servers (virtual t=%v)\n",
		len(ids), honest, net.Now())

	if !net.RunUntilSettled(5 * time.Minute) {
		log.Fatalf("only %d of %d elements settled", net.Committed(), net.Added())
	}
	fmt.Printf("all elements committed at virtual t=%v (wall %v)\n\n",
		net.Now(), time.Since(start).Round(time.Millisecond))

	verified := 0
	for _, id := range ids {
		if _, err := net.Client(0).Confirm(1, id); err == nil {
			verified++
		}
	}
	fmt.Printf("client verification with f+1=%d epoch-proofs: %d/%d elements\n",
		f+1, verified, len(ids))
	if verified != len(ids) {
		os.Exit(1)
	}
	if err := net.Check(); err != nil {
		log.Fatal(err)
	}

	hist := net.History(0)
	total := 0
	for _, ep := range hist {
		total += len(ep.Elements)
	}
	fmt.Printf("history: %d epochs holding %d elements (epoch sizes:", len(hist), total)
	for _, ep := range hist {
		fmt.Printf(" %d", len(ep.Elements))
	}
	fmt.Println(")")
}
