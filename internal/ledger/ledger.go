// Package ledger assembles the block-based ledger abstraction the Setchain
// algorithms are built on (paper §2): per-server nodes combining a gossip
// mempool and a Tendermint-style consensus engine behind two endpoints —
// Append(tx) to submit a transaction and ABCI FinalizeBlock notifications
// when blocks commit. It provides the paper's ledger properties:
//
//   - Property 9 (Ledger-Add-Eventual-Notify): a valid transaction appended
//     by a correct server is eventually committed at a fixed position and
//     every correct server is notified;
//   - Property 10 (Ledger-Consistent-Notification): all correct servers see
//     the same blocks in the same order;
//   - Property 11 (Notification-Implies-Append): committed transactions
//     were appended by some server.
//
// See DESIGN.md §4 (ledger stack).
package ledger

import (
	"fmt"

	"repro/internal/abci"
	"repro/internal/consensus"
	"repro/internal/mempool"
	"repro/internal/netsim"
	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// AppMsgHandler receives non-ledger messages addressed to a node (the
// Setchain layer's batch request/response traffic shares the same fabric).
type AppMsgHandler func(from wire.NodeID, payload any, size int)

// Node is one server's ledger stack: mempool + consensus + application.
type Node struct {
	ID   wire.NodeID
	Pool *mempool.Mempool
	Cons *consensus.Node

	net    *netsim.Network
	appMsg AppMsgHandler
	mesh   *netsim.Mesh // non-nil iff the cluster runs the mesh transport
}

// Append submits a transaction to this node's ledger (the paper's
// L.append / CometBFT BroadcastTxAsync). Returns whether the local mempool
// admitted it; gossip then replicates it and consensus eventually packs it
// into a block.
func (n *Node) Append(tx *wire.Tx) bool {
	return n.Pool.AddTx(tx)
}

// AdmitElement consults the mempool's admission policy for one incoming
// client element (DESIGN.md §14). The Setchain server gates every add —
// Vanilla's per-element transaction and the batch algorithms' collector
// entries alike — through this one door BEFORE the element enters any
// application state, so a refused element leaves no trace anywhere.
// Always true with admission off.
func (n *Node) AdmitElement() bool {
	return n.Pool.AdmitElement()
}

// SetAppMsgHandler routes non-consensus network payloads (anything that is
// not mempool gossip or a consensus message) to the application layer.
func (n *Node) SetAppMsgHandler(h AppMsgHandler) { n.appMsg = h }

// Checkpointed tells the ledger stack the application sealed a pruning
// checkpoint at the given height: consensus drops committed blocks and
// decided proposals at or below it, and the mempool drops the committed-key
// tombstones those blocks justified. Called by the application (core) when
// Options.Prune is on.
func (n *Node) Checkpointed(height uint64) {
	n.Cons.SetRetainHorizon(height)
	n.Pool.PruneTombstonesBelow(height)
}

// Send transmits an application-level message to a peer over the same
// simulated fabric the ledger uses.
func (n *Node) Send(to wire.NodeID, payload any, size int) {
	n.net.Send(n.ID, to, payload, size)
}

func (n *Node) receive(from wire.NodeID, payload any, size int) {
	switch msg := payload.(type) {
	case *netsim.Envelope:
		// Mesh transport: unwrap, dedup and relay; fresh payloads come
		// back through receive with their origin as the sender.
		n.mesh.Receive(n.ID, from, msg)
	case *mempool.GossipMsg:
		n.Pool.ReceiveGossip(msg)
	case *consensus.Proposal, *consensus.Vote, *consensus.BlockRequest,
		*consensus.BlockResponse, *consensus.SyncOffer,
		*consensus.SyncChunkRequest, *consensus.SyncChunk:
		n.Cons.Receive(from, payload)
	default:
		if n.appMsg != nil {
			n.appMsg(from, payload, size)
		}
	}
}

// Config describes a ledger cluster. Build it from PaperConfig: the
// consensus and mempool blocks are used as given, and their zero values
// are refused.
type Config struct {
	// N is the number of servers (validators).
	N int
	// FirstID offsets the cluster's node ids: validators are
	// FirstID..FirstID+N-1. Zero gives the classic 0..N-1 ids; sharded
	// worlds (internal/shard) give every shard's cluster a disjoint range
	// so several independent consensus groups can share one network.
	FirstID wire.NodeID
	// ClientIDBase offsets the deployment's client ids (and thus their PKI
	// registry slots) the same way FirstID offsets node ids. Consumed by
	// core.Deploy; sharded worlds give each shard a disjoint client range
	// so element ids stay globally unique across shards.
	ClientIDBase int
	// Net configures the simulated network. Ignored when Network is set.
	Net netsim.Config
	// Network, when non-nil, attaches the cluster to an existing simulated
	// fabric instead of building its own from Net. Sharded worlds pass one
	// shared network to every shard's cluster, so scheduled faults and
	// partitions compose across the whole deployment (DESIGN.md §10).
	Network *netsim.Network
	// Consensus holds the engine parameters (block size, block interval).
	Consensus consensus.Params
	// Mempool holds pool limits and gossip cadence.
	Mempool mempool.Config
	// Transport selects the fan-out path: "" or "broadcast" is the classic
	// per-validator send loop (byte-identical to every pre-mesh run);
	// "mesh" routes proposals, votes and mempool gossip over the
	// bounded-fanout overlay (DESIGN.md §13). Catch-up traffic is always
	// point-to-point.
	Transport string
	// Fanout is the mesh's target node degree, at least 2 (a scenario's
	// default of 8 is spec.WithDefaults'). Ignored unless Transport is
	// "mesh".
	Fanout int
	// Suite selects real or fast crypto. Nil defaults to FastSuite.
	Suite setcrypto.Suite
	// OnTxEnterMempool observes transactions entering each node's pool.
	OnTxEnterMempool mempool.EnterFunc
}

// PaperConfig returns the evaluation's ledger — a LAN, consensus.PaperParams
// and mempool.PaperConfig over broadcast — for any N.
func PaperConfig() Config {
	return Config{
		Net:       netsim.DefaultLANConfig(),
		Consensus: consensus.PaperParams(),
		Mempool:   mempool.PaperConfig(),
	}
}

// Cluster is a full n-node ledger deployment on one simulator.
type Cluster struct {
	Sim      *sim.Simulator
	Net      *netsim.Network
	Nodes    []*Node
	Suite    setcrypto.Suite
	Registry *setcrypto.Registry
	Keys     []setcrypto.KeyPair
	// Mesh is the gossip overlay carrying this cluster's consensus and
	// mempool fan-out; nil on the classic broadcast transport. Sharded
	// worlds build one mesh per shard over the shared fabric.
	Mesh *netsim.Mesh
	// TxKeys is the transaction-key table every node's mempool shares: a
	// key is interned once per ledger, and each pool keeps 4 bytes of its
	// own state per key (DESIGN.md §4).
	TxKeys *mempool.Keys
}

// NewCluster builds the network, PKI, mempools and consensus nodes. The
// mempools share one key table and refuse a transaction larger than a
// block. The application for each node defaults to a no-op; install real
// apps with SetApp before calling Start.
func NewCluster(s *sim.Simulator, cfg Config) *Cluster {
	if cfg.N <= 0 {
		panic("ledger: cluster needs at least one node")
	}
	suite := cfg.Suite
	if suite == nil {
		suite = setcrypto.FastSuite{}
	}
	net := cfg.Network
	if net == nil {
		net = netsim.New(s, cfg.Net)
	}
	c := &Cluster{
		Sim:      s,
		Net:      net,
		Suite:    suite,
		Registry: setcrypto.NewRegistry(),
		TxKeys:   mempool.NewKeys(),
	}
	validators := make([]wire.NodeID, cfg.N)
	for i := 0; i < cfg.N; i++ {
		validators[i] = cfg.FirstID + wire.NodeID(i)
		var kp setcrypto.KeyPair
		if _, real := suite.(setcrypto.Ed25519Suite); real {
			kp = setcrypto.GenerateKeyPair(s.Rand())
		} else {
			kp = setcrypto.FastKeyPair(int(validators[i]))
		}
		c.Keys = append(c.Keys, kp)
		c.Registry.Register(int(validators[i]), kp.Public)
	}
	for i := 0; i < cfg.N; i++ {
		id := validators[i]
		peers := make([]wire.NodeID, 0, cfg.N-1)
		for _, v := range validators {
			if v != id {
				peers = append(peers, v)
			}
		}
		node := &Node{ID: id, net: c.Net}
		node.Pool = mempool.New(id, s, c.Net, peers, cfg.Mempool, nil, cfg.OnTxEnterMempool)
		node.Pool.ShareKeys(c.TxKeys)
		node.Pool.SetMaxTxBytes(cfg.Consensus.MaxBlockBytes)
		node.Cons = consensus.NewNode(id, validators, s, c.Net, cfg.Consensus,
			suite, c.Keys[i], c.Registry, node.Pool)
		c.Nodes = append(c.Nodes, node)
		c.Net.AddNode(id, node.receive)
	}
	if cfg.Transport == "mesh" {
		if cfg.Fanout < 2 {
			panic(fmt.Sprintf("ledger: mesh transport needs Fanout >= 2, got %d", cfg.Fanout))
		}
		c.Mesh = netsim.NewMesh(c.Net, validators, cfg.Fanout)
		for _, node := range c.Nodes {
			// A fresh gossiped payload is attributed to its ORIGINATOR, not
			// the relaying neighbor, so consensus sender checks and
			// catch-up targeting behave exactly as under direct sends.
			// Envelopes never nest, so routing back through receive is
			// terminal. Consensus and mempool publish through the mesh.
			node.mesh = c.Mesh
			c.Mesh.SetDeliver(node.ID, node.receive)
			mesh, id := c.Mesh, node.ID
			pub := func(payload any, size int) { mesh.Gossip(id, payload, size) }
			node.Cons.SetBroadcaster(pub)
			node.Pool.SetBroadcaster(pub)
		}
	}
	return c
}

// SetApp installs the application on one node's consensus engine, and its
// CheckTx as the mempool's admission filter. Must be called before Start.
// id is the node's (possibly FirstID-offset) id.
func (c *Cluster) SetApp(id wire.NodeID, app abci.Application) {
	node := c.node(id)
	node.Pool.SetCheck(app.CheckTx)
	node.Cons.SetApp(app)
	// Applications that checkpoint (core.Server) also serve and install
	// state-sync snapshots for deep catch-up. Applications without
	// checkpoints fail the assertion on purpose; core.Server pins its own
	// conformance at compile time, so a signature drift there is a build
	// error and not state-sync silently off.
	if syncer, ok := app.(consensus.StateSyncer); ok {
		node.Cons.SetStateSyncer(syncer)
	}
}

// node resolves a node id to the cluster's node.
func (c *Cluster) node(id wire.NodeID) *Node {
	for _, n := range c.Nodes {
		if n.ID == id {
			return n
		}
	}
	panic(fmt.Sprintf("ledger: no node %d in cluster", id))
}

// Start launches consensus on every node.
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		n.Cons.Start()
	}
}

// Stop freezes all nodes.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Cons.Stop()
	}
}

// VerifyConsistentChains checks Property 10 across all live nodes: every
// pair of chains agrees on the overlap of their retained height ranges
// (checkpoint pruning may have trimmed different prefixes — chains are
// aligned by absolute height via ChainBase, and the pruned prefixes are
// cross-checked digest-wise by the invariant checker instead). Returns an
// error describing the first divergence found.
func (c *Cluster) VerifyConsistentChains() error {
	for i := 0; i < len(c.Nodes); i++ {
		for j := i + 1; j < len(c.Nodes); j++ {
			a, b := c.Nodes[i].Cons.Chain(), c.Nodes[j].Cons.Chain()
			baseA, baseB := c.Nodes[i].Cons.ChainBase(), c.Nodes[j].Cons.ChainBase()
			lo := baseA
			if baseB > lo {
				lo = baseB
			}
			hi := baseA + uint64(len(a))
			if top := baseB + uint64(len(b)); top < hi {
				hi = top
			}
			for ht := lo + 1; ht <= hi; ht++ {
				ba, bb := a[ht-1-baseA], b[ht-1-baseB]
				if len(ba.Txs) != len(bb.Txs) {
					return fmt.Errorf("nodes %d/%d diverge at height %d: %d vs %d txs",
						i, j, ht, len(ba.Txs), len(bb.Txs))
				}
				for k := range ba.Txs {
					if ba.Txs[k].MapKey() != bb.Txs[k].MapKey() {
						return fmt.Errorf("nodes %d/%d diverge at height %d tx %d",
							i, j, ht, k)
					}
				}
			}
		}
	}
	return nil
}
