// Voting: an e-voting scenario (the paper cites Follow My Vote and
// Chirotonia) on a Hashchain Setchain. Ballots need no order among
// themselves — only set membership and a closing barrier — which is
// exactly the relaxation Setchain exploits for throughput. The election
// closes at an epoch boundary; everything consolidated by then counts.
//
//	go run ./examples/voting
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/setchain"
)

func main() {
	const servers = 7 // tolerates f = 3 Byzantine servers
	net, err := setchain.New(setchain.Config{
		Algorithm:     setchain.Hashchain,
		Servers:       servers,
		CollectorSize: 25,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("election on %d servers (f=%d), ballots are Setchain elements\n",
		net.Servers(), net.F())

	candidates := []string{"alice", "bob", "carol"}
	// 105 voters cast ballots through their nearest server. Ballot payload
	// is "vote/<voter>/<candidate>"; the client signature makes it
	// authenticated, and the_set's grow-only semantics deduplicate.
	votes := map[string]string{}
	var ids []setchain.ElementID
	for voter := 0; voter < 105; voter++ {
		cand := candidates[(voter*7+3)%len(candidates)]
		ballot := fmt.Sprintf("vote/voter-%03d/%s", voter, cand)
		votes[fmt.Sprintf("voter-%03d", voter)] = cand
		id, err := net.Client(voter % servers).Add([]byte(ballot))
		if err != nil {
			log.Fatalf("ballot %d: %v", voter, err)
		}
		ids = append(ids, id)
		if voter%10 == 9 {
			net.Run(200 * time.Millisecond) // ballots trickle in
		}
	}
	if !net.RunUntilSettled(5 * time.Minute) {
		log.Fatalf("election stuck: %d of %d ballots committed", net.Committed(), net.Added())
	}

	// Close the election at the current epoch barrier and tally from ONE
	// server's history, verifying each counted epoch with f+1 proofs.
	closeEpoch := net.EpochCount(0)
	fmt.Printf("election closed at epoch barrier %d (t=%v)\n", closeEpoch, net.Now())

	tally := map[string]int{}
	counted := 0
	for _, ep := range net.History(2) { // any server works; verify anyway
		if ep.Number > closeEpoch {
			break
		}
		// Verify the epoch before counting it: pick any of its elements
		// and confirm via the f+1 epoch-proof rule.
		if len(ep.Elements) == 0 {
			continue
		}
		if _, err := net.Client(0).Confirm(2, ep.Elements[0].ID); err != nil {
			log.Fatalf("epoch %d unverifiable: %v", ep.Number, err)
		}
		for _, e := range ep.Elements {
			parts := strings.Split(string(e.Payload()), "/")
			if len(parts) == 3 && parts[0] == "vote" {
				tally[parts[2]]++
				counted++
			}
		}
	}
	fmt.Printf("counted %d verified ballots across %d epochs\n", counted, closeEpoch)
	for _, c := range candidates {
		fmt.Printf("  %-6s %3d votes  %s\n", c, tally[c], strings.Repeat("#", tally[c]/2))
	}
	if counted != len(ids) {
		log.Fatalf("tally mismatch: counted %d of %d ballots", counted, len(ids))
	}

	// Cross-check the tally against an independent server (Consistent-Gets
	// means every correct server yields the same result).
	other := map[string]int{}
	for _, ep := range net.History(5) {
		if ep.Number > closeEpoch {
			break
		}
		for _, e := range ep.Elements {
			parts := strings.Split(string(e.Payload()), "/")
			if len(parts) == 3 {
				other[parts[2]]++
			}
		}
	}
	for _, c := range candidates {
		if tally[c] != other[c] {
			log.Fatalf("servers disagree on %s: %d vs %d", c, tally[c], other[c])
		}
	}
	if err := net.Check(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("independent tally from server 5 matches — election result is final")
}
