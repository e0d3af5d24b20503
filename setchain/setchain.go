// Package setchain is the public API of this repository: a Byzantine
// fault tolerant Setchain — a distributed grow-only set organized into a
// sequence of unordered epochs — implemented with the three algorithms of
// "Setchain Algorithms for Blockchain Scalability" (Vanilla, Compresschain
// and Hashchain) on top of a CometBFT-style block-based ledger.
//
// A Network is a complete deployment (ledger validators, Setchain servers,
// one client per server) running on a deterministic virtual-time simulator:
// time advances only through Run/RunUntilSettled, so tests and examples are
// exactly reproducible.
//
// Quickstart:
//
//	net, _ := setchain.New(setchain.Config{Algorithm: setchain.Hashchain, Servers: 4})
//	id, _ := net.Client(0).Add([]byte("hello setchain"))
//	net.RunUntilSettled(2 * time.Minute)
//	epoch, err := net.Client(0).Confirm(1, id) // verify via f+1 epoch-proofs
package setchain

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/setcrypto"
	"repro/internal/sim"
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
	// F is the maximum number of Byzantine servers tolerated by the
	// Setchain layer (f < n/2); epoch confirmation requires f+1
	// epoch-proofs. Defaults to (Servers-1)/2.
	F int
	// CollectorSize is the batch collector limit c (default 100).
	CollectorSize int
	// CollectorTimeout flushes partial batches (default 500 ms).
	CollectorTimeout time.Duration
	// NetworkDelay adds artificial latency to every server-to-server
	// message, emulating WAN deployments (the paper's network_delay).
	NetworkDelay time.Duration
	// BlockBytes is the ledger block capacity (default 0.5 MiB).
	BlockBytes int
	// Seed makes the virtual-time simulation reproducible (default 1).
	Seed int64
}

// withDefaults is the one place the public API's defaults are written.
func (c Config) withDefaults() Config {
	if c.Servers == 0 {
		c.Servers = 4
	}
	if c.F == 0 {
		c.F = (c.Servers - 1) / 2
	}
	if c.CollectorSize == 0 {
		c.CollectorSize = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Network is a running Setchain deployment on a virtual-time simulator.
type Network struct {
	cfg Config
	sim *sim.Simulator
	dep *core.Deployment
	rec *metrics.Recorder
}

// New builds and starts a deployment with real cryptography (ed25519 +
// SHA-512) and full payload fidelity.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Servers < 1 {
		return nil, errors.New("setchain: need at least one server")
	}
	if cfg.F < 0 || cfg.F >= cfg.Servers {
		return nil, fmt.Errorf("setchain: F=%d must be in [0, Servers=%d)", cfg.F, cfg.Servers)
	}
	if cfg.CollectorSize < 0 || cfg.CollectorTimeout < 0 || cfg.NetworkDelay < 0 || cfg.BlockBytes < 0 {
		return nil, errors.New("setchain: CollectorSize, CollectorTimeout, NetworkDelay and BlockBytes must be >= 0")
	}
	s := sim.New(cfg.Seed)
	rec := metrics.New(s, metrics.LevelThroughput, cfg.Servers, cfg.F, 0)
	lcfg := ledger.PaperConfig()
	lcfg.Net.ExtraDelay = cfg.NetworkDelay
	if cfg.BlockBytes > 0 {
		lcfg.Consensus.MaxBlockBytes = cfg.BlockBytes
	}
	lcfg.Suite = setcrypto.Ed25519Suite{}
	dep := core.Deploy(s, cfg.Servers, lcfg, core.Options{
		Algorithm:        cfg.Algorithm,
		Mode:             core.Full,
		CollectorLimit:   cfg.CollectorSize,
		CollectorTimeout: cfg.CollectorTimeout,
		F:                cfg.F,
	}, rec)
	dep.Start()
	return &Network{cfg: cfg, sim: s, dep: dep, rec: rec}, nil
}

// Servers returns the deployment size n.
func (n *Network) Servers() int { return n.cfg.Servers }

// F returns the Byzantine fault bound.
func (n *Network) F() int { return n.cfg.F }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.sim.Now() }

// Run advances virtual time by d, delivering messages, committing ledger
// blocks and consolidating epochs.
func (n *Network) Run(d time.Duration) {
	n.sim.RunUntil(n.sim.Now() + d)
}

// RunUntilSettled advances time until every element added so far is
// committed (in an epoch with f+1 proofs on the ledger) or maxWait
// elapses. Returns whether everything settled.
func (n *Network) RunUntilSettled(maxWait time.Duration) bool {
	deadline := n.sim.Now() + maxWait
	for n.sim.Now() < deadline {
		if n.rec.TotalCommitted() >= n.rec.TotalInjected() && n.rec.TotalInjected() > 0 {
			return true
		}
		n.dep.Drain()
		n.sim.RunUntil(n.sim.Now() + time.Second)
	}
	return n.rec.TotalCommitted() >= n.rec.TotalInjected()
}

// SetByzantine installs faulty behavior on one server (nil restores
// correct behavior). Use before or between Run calls.
func (n *Network) SetByzantine(server int, b *Byzantine) {
	n.dep.Servers[server].SetBehavior(b)
}

// Client returns the client attached to a server (one per server, as in
// the paper's deployment).
func (n *Network) Client(server int) *Client {
	return &Client{net: n, server: server}
}

// History returns server's current epoch sequence (read-only view).
func (n *Network) History(server int) []*Epoch {
	return n.dep.Servers[server].Get().History
}

// EpochCount returns the epoch counter at a server.
func (n *Network) EpochCount(server int) uint64 {
	return n.dep.Servers[server].Get().Epoch
}

// Committed returns how many added elements are committed so far.
func (n *Network) Committed() uint64 { return n.rec.TotalCommitted() }

// Added returns how many elements clients have added.
func (n *Network) Added() uint64 { return n.rec.TotalInjected() }

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
// Network.Run or RunUntilSettled.
func (c *Client) Add(payload []byte) (ElementID, error) {
	cl := c.net.dep.Clients[c.server]
	e := cl.NewElement(payload)
	e.InjectedAt = int64(c.net.sim.Now())
	if err := c.net.dep.Servers[c.server].Add(e); err != nil {
		return ElementID{}, err
	}
	c.net.rec.Injected(e)
	return e.ID, nil
}

// Confirm asks the given server for its get() state and verifies — using
// only the PKI — that the element is in an epoch carrying at least f+1
// valid epoch-proofs. Returns the epoch number.
func (c *Client) Confirm(askServer int, id ElementID) (uint64, error) {
	cl := c.net.dep.Clients[c.server]
	snap := c.net.dep.Servers[askServer].Get()
	return cl.VerifyCommitted(snap, id)
}

// InSet reports whether a server's the_set contains the element (weaker
// than Confirm: no proof verification).
func (c *Client) InSet(askServer int, id ElementID) bool {
	return c.net.dep.Servers[askServer].Get().TheSet.Has(id)
}

// Find returns the epoch containing the element at a server, or nil.
func (c *Client) Find(askServer int, id ElementID) *Epoch {
	snap := c.net.dep.Servers[askServer].Get()
	for _, ep := range snap.History {
		for _, e := range ep.Elements {
			if e.ID == id {
				return ep
			}
		}
	}
	return nil
}
