// Package setchain is the public API of this repository: a Byzantine
// fault tolerant Setchain — a distributed grow-only set organized into a
// sequence of unordered epochs — implemented with the three algorithms of
// "Setchain Algorithms for Blockchain Scalability" (Vanilla, Compresschain
// and Hashchain) on top of a CometBFT-style block-based ledger.
//
// A Network is a complete deployment (ledger validators, Setchain servers,
// one client per server) running on a deterministic virtual-time simulator:
// time advances only through Run/RunUntilSettled, so tests and examples are
// exactly reproducible. It is built like every evaluation scenario
// (internal/harness.Deploy: the paper's CPU costs, f = (n−1)/2, 500 ms
// collector timeout, 0.5 MiB blocks), and Check runs their safety checker.
// Server 0 is the observer whose commit record Check audits.
//
// Quickstart:
//
//	net, _ := setchain.New(setchain.Config{Algorithm: setchain.Hashchain, Servers: 4})
//	id, _ := net.Client(0).Add([]byte("hello setchain"))
//	net.RunUntilSettled(2 * time.Minute)
//	epoch, err := net.Client(0).Confirm(1, id) // verify via f+1 epoch-proofs
//	err = net.Check()                          // every safety property held
package setchain

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/setcrypto"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Algorithm selects one of the paper's three Setchain implementations.
type Algorithm = core.Algorithm

// The three algorithms, in the paper's order.
const (
	// Vanilla appends each element as its own ledger transaction.
	Vanilla = core.Vanilla
	// Compresschain appends compressed element batches.
	Compresschain = core.Compresschain
	// Hashchain appends signed batch hashes and recovers contents through
	// the distributed batch store (the paper's primary contribution).
	Hashchain = core.Hashchain
)

// ElementID identifies an element added to the Setchain.
type ElementID = wire.ElementID

// Epoch is one entry of the Setchain history.
type Epoch = core.Epoch

// Byzantine configures faulty-server behavior (see the fields of
// core.Behavior: refuse to serve batches, serve wrong batches, corrupt
// proofs, inject invalid elements).
type Byzantine = core.Behavior

// Config describes a deployment.
type Config struct {
	// Algorithm selects Vanilla, Compresschain or Hashchain; the zero
	// value is Vanilla.
	Algorithm Algorithm
	// Servers is the number of Setchain/ledger servers (default 4).
	Servers int
	// CollectorSize is the batch collector limit c (default 100).
	CollectorSize int
	// NetworkDelay adds artificial latency to every server-to-server
	// message, emulating WAN deployments (the paper's network_delay).
	NetworkDelay time.Duration
	// Seed makes the virtual-time simulation reproducible (default 1).
	Seed int64
}

// withDefaults is the one place the public API's defaults are written.
func (c Config) withDefaults() Config {
	c.Servers = cmp.Or(c.Servers, 4)
	c.CollectorSize = cmp.Or(c.CollectorSize, 100)
	c.Seed = cmp.Or(c.Seed, 1)
	return c
}

// F returns the Byzantine fault bound a deployment of c runs with, the
// largest f < n/2 for its n servers: what Network.F reports once it runs.
func (c Config) F() int { return core.MaxFaulty(c.withDefaults().Servers) }

// errNoServer answers Add and Confirm for an index outside [0, Servers).
var errNoServer = errors.New("setchain: no such server")

// MaxPayload is the largest payload Client.Add accepts: with its header and
// signature, the element must fit an element's 32-bit wire size.
const MaxPayload = wire.MaxElementSize - wire.ElementHeaderSize - setcrypto.SignatureSize

// checkPayload refuses a payload of n bytes when its element would not fit.
func checkPayload(n int) error {
	if n > MaxPayload {
		return fmt.Errorf("setchain: payload of %d bytes exceeds MaxPayload (%d)", n, MaxPayload)
	}
	return nil
}

// Network is a running Setchain deployment on a virtual-time simulator.
type Network struct {
	d   *shard.Deployment // one shard: the paper's single instance
	gen *shard.Generator  // never started; books every Client.Add
}

// New builds and starts a deployment with real cryptography (ed25519 +
// SHA-512) and full payload fidelity.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Servers < 1 || cfg.CollectorSize < 0 || cfg.NetworkDelay < 0 {
		return nil, errors.New("setchain: need Servers >= 1, CollectorSize >= 0 and NetworkDelay >= 0")
	}
	if cfg.Algorithm < Vanilla || cfg.Algorithm > Hashchain {
		return nil, fmt.Errorf("setchain: unknown Algorithm %d (want Vanilla, Compresschain or Hashchain)", int(cfg.Algorithm))
	}
	_, d, gen := harness.Deploy(harness.Scenario{
		Spec:         harness.AlgSpec{Alg: cfg.Algorithm, Collector: cfg.CollectorSize},
		Servers:      cfg.Servers,
		NetworkDelay: cfg.NetworkDelay,
		Seed:         cfg.Seed,
		Mode:         core.Full,
	})
	d.Start()
	return &Network{d: d, gen: gen}, nil
}

// get returns server i's get() state; ok is false when there is no server i.
func (n *Network) get(i int) (snap core.Snapshot, ok bool) {
	if i < 0 || i >= n.d.Servers {
		return snap, false
	}
	return n.d.Shards[0].Servers[i].Get(), true
}

// Servers returns the deployment size n.
func (n *Network) Servers() int { return n.d.Servers }

// CollectorSize returns the collector limit c the servers run with.
func (n *Network) CollectorSize() int { return n.d.Shards[0].Opts.CollectorLimit }

// Seed returns the seed the simulation runs with.
func (n *Network) Seed() int64 { return n.d.Sim.Seed() }

// F returns the Byzantine fault bound.
func (n *Network) F() int { return n.d.Shards[0].Opts.F }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.d.Sim.Now() }

// Run advances virtual time by d, delivering messages, committing ledger
// blocks and consolidating epochs.
func (n *Network) Run(d time.Duration) { n.d.Sim.RunUntil(n.Now() + d) }

// RunUntilSettled advances time until every element added so far is
// committed (in an epoch with f+1 proofs on the ledger) or maxWait
// elapses. Returns whether everything settled.
func (n *Network) RunUntilSettled(maxWait time.Duration) bool {
	deadline := n.Now() + maxWait
	for n.Now() < deadline {
		if n.Committed() >= n.Added() && n.Added() > 0 {
			return true
		}
		n.d.Drain()
		n.Run(time.Second)
	}
	return n.Committed() >= n.Added()
}

// SetByzantine installs faulty behavior on server 1..Servers-1 (nil
// restores correct behavior). Use before or between Run calls. A server
// once made Byzantine stays excluded from Check.
func (n *Network) SetByzantine(server int, b *Byzantine) error {
	if server < 1 || server >= n.d.Servers {
		return fmt.Errorf("setchain: server %d cannot be Byzantine (want 1..%d; 0 is the observer)", server, n.d.Servers-1)
	}
	n.d.Shards[0].Servers[server].SetBehavior(b)
	if b != nil {
		n.d.SetFaulty(wire.NodeID(server)) // one shard: node id = index
	}
	return nil
}

// Check runs the safety checker every evaluation scenario ends with
// (internal/invariant) over the servers never made Byzantine; nil means
// every Setchain safety property held.
func (n *Network) Check() error { return harness.Check(n.d, n.gen) }

// Client returns the client attached to a server (one per server, as in
// the paper's deployment).
func (n *Network) Client(server int) *Client {
	return &Client{net: n, server: server}
}

// History returns a server's epoch sequence (read-only view; nil if none).
func (n *Network) History(server int) []*Epoch {
	snap, _ := n.get(server)
	return snap.History
}

// EpochCount returns the epoch counter at a server (0 when there is none).
func (n *Network) EpochCount(server int) uint64 {
	snap, _ := n.get(server)
	return snap.Epoch
}

// Committed returns how many added elements are committed so far.
func (n *Network) Committed() uint64 { return n.d.Recorders[0].TotalCommitted() }

// Added returns how many elements clients have added.
func (n *Network) Added() uint64 { return n.d.Recorders[0].TotalInjected() }

// Client adds elements through one server and verifies commitment against
// any (possibly different, possibly Byzantine) server using f+1
// epoch-proofs — the paper's single-server interaction model.
type Client struct {
	net    *Network
	server int
}

// Add creates a signed element carrying payload and submits it to the
// client's server. The returned id is used to confirm commitment later.
// The element is not yet durable when Add returns: advance time with
// Network.Run or RunUntilSettled. A payload over MaxPayload is an error.
func (c *Client) Add(payload []byte) (ElementID, error) {
	if _, ok := c.net.get(c.server); !ok {
		return ElementID{}, errNoServer
	}
	if err := checkPayload(len(payload)); err != nil {
		return ElementID{}, err
	}
	e := c.net.d.Shards[0].Clients[c.server].NewElement(payload)
	if err := c.net.gen.Add(e, 0, c.server); err != nil {
		return ElementID{}, err
	}
	return e.ID, nil
}

// Confirm asks the given server for its get() state and verifies — using
// only the PKI — that the element is in an epoch carrying at least f+1
// valid epoch-proofs. Returns the epoch number.
func (c *Client) Confirm(askServer int, id ElementID) (uint64, error) {
	snap, ok := c.net.get(askServer)
	if _, mine := c.net.get(c.server); !mine || !ok {
		return 0, errNoServer
	}
	return c.net.d.Shards[0].Clients[c.server].VerifyCommitted(snap, id)
}

// InSet reports whether a server's the_set contains the element (weaker
// than Confirm: no proof verification).
func (c *Client) InSet(askServer int, id ElementID) bool {
	snap, ok := c.net.get(askServer)
	return ok && snap.TheSet.Has(id)
}

// Find returns the epoch containing the element at a server, or nil.
func (c *Client) Find(askServer int, id ElementID) *Epoch {
	snap, _ := c.net.get(askServer)
	for _, ep := range snap.History {
		if slices.ContainsFunc(ep.Elements, func(e *wire.Element) bool { return e.ID == id }) {
			return ep
		}
	}
	return nil
}
