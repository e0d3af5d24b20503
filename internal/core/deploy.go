package core

import (
	"repro/internal/ledger"
	"repro/internal/metrics"
	"repro/internal/setcrypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Deployment is a complete Setchain system on one simulator: the ledger
// cluster, one Setchain server per ledger node, and one client per server
// (the paper's evaluation topology: each Docker container holds one client,
// one collector and one CometBFT server).
type Deployment struct {
	Sim     *sim.Simulator
	Ledger  *ledger.Cluster
	Servers []*Server
	Clients []*Client
	Opts    Options
}

// Deploy builds a full Setchain deployment. opts applies to every server;
// rec may be nil.
func Deploy(s *sim.Simulator, n int, ledgerCfg ledger.Config, opts Options, rec *metrics.Recorder) *Deployment {
	ledgerCfg.N = n
	if rec != nil && ledgerCfg.OnTxEnterMempool == nil {
		ledgerCfg.OnTxEnterMempool = rec.TxEnteredMempool
	}
	lc := ledger.NewCluster(s, ledgerCfg)
	opts = opts.withTimeouts()
	d := &Deployment{Sim: s, Ledger: lc, Opts: opts}
	for i := 0; i < n; i++ {
		node := lc.Nodes[i]
		srv := newServer(node, s, n, lc.Suite, lc.Keys[i], lc.Registry, opts)
		if rec != nil {
			srv.SetRecorder(rec)
		}
		lc.SetApp(node.ID, srv)
		d.Servers = append(d.Servers, srv)
	}
	for i := 0; i < n; i++ {
		// ClientIDBase keeps client ids (and the element ids derived from
		// them) globally unique when several shard deployments share one
		// world; the classic single-deployment base is 0.
		id := wire.ClientID(ledgerCfg.ClientIDBase + i)
		var kp setcrypto.KeyPair
		if _, real := lc.Suite.(setcrypto.Ed25519Suite); real {
			kp = setcrypto.GenerateKeyPair(s.Rand())
		} else {
			kp = setcrypto.FastKeyPair(int(id) + clientKeyOffset(n))
		}
		RegisterClientKey(lc.Registry, n, id, kp.Public)
		d.Clients = append(d.Clients, NewClient(id, lc.Suite, kp, lc.Registry, n, opts.F, opts.Mode))
	}
	return d
}

// Server returns the deployment's server with the given node id, or nil.
// Servers are stored in deployment order; in sharded worlds their ids are
// offset by the shard's ledger.Config.FirstID, so lookups go through the
// id rather than the slice index.
func (d *Deployment) Server(id wire.NodeID) *Server {
	for _, s := range d.Servers {
		if s.ID() == id {
			return s
		}
	}
	return nil
}

// Start launches the ledger.
func (d *Deployment) Start() { d.Ledger.Start() }

// Stop freezes the ledger.
func (d *Deployment) Stop() { d.Ledger.Stop() }

// Drain flushes every server's collector (call after clients stop adding).
func (d *Deployment) Drain() {
	for _, s := range d.Servers {
		s.Drain()
	}
}
