package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/setcrypto"
	"repro/internal/wire"
)

// Client is a Setchain client: it creates signed elements, adds them
// through a single server, and can later verify — against the response of a
// single, possibly Byzantine, server — that an element is committed, using
// the f+1 epoch-proof rule the paper introduces.
type Client struct {
	id       wire.ClientID
	suite    setcrypto.Suite
	key      setcrypto.KeyPair
	registry *setcrypto.Registry
	n        int
	f        int
	mode     Mode
	seq      uint64
}

// NewClient creates a client. n and f describe the deployment; the
// client's public key must already be registered in the PKI at id offset n
// (see RegisterClientKey).
func NewClient(id wire.ClientID, suite setcrypto.Suite, key setcrypto.KeyPair,
	registry *setcrypto.Registry, n, f int, mode Mode) *Client {
	return &Client{id: id, suite: suite, key: key, registry: registry, n: n, f: f, mode: mode}
}

// RegisterClientKey records a client's public key in the shared PKI,
// mapping client ids after the n server ids.
func RegisterClientKey(registry *setcrypto.Registry, n int, id wire.ClientID, pub setcrypto.PublicKey) {
	registry.Register(int(id)+clientKeyOffset(n), pub)
}

// ID returns the client id.
func (c *Client) ID() wire.ClientID { return c.id }

// PublicKey returns the client's verification key, so deployments that
// span several PKI registries (sharded worlds, where a client's element
// may land on any shard) can register it everywhere.
func (c *Client) PublicKey() setcrypto.PublicKey { return c.key.Public }

// NewElement creates and signs a full-fidelity element carrying payload.
func (c *Client) NewElement(payload []byte) *wire.Element {
	c.seq++
	e := &wire.Element{
		ID:      wire.NewElementID(c.id, c.seq),
		Client:  c.id,
		Seq:     c.seq,
		Payload: payload,
	}
	e.Sig = c.suite.Sign(c.key, e.SigningBytes())
	e.Size = wire.ElementHeaderSize + len(payload) + len(e.Sig)
	return e
}

// NewModeledElement creates a payload-free element with the given wire
// size, for Modeled-mode simulations.
func (c *Client) NewModeledElement(size int) *wire.Element {
	c.seq++
	return &wire.Element{ID: wire.NewElementID(c.id, c.seq), Client: c.id, Seq: c.seq, Size: size}
}

// Verification errors.
var (
	ErrNotInEpoch         = errors.New("setchain: element not assigned to an epoch yet")
	ErrInsufficientProofs = errors.New("setchain: fewer than f+1 valid epoch-proofs")
)

// VerifyCommitted checks — trusting nothing but the PKI — that the element
// is committed according to a server's get() response: the element must be
// in some epoch of the returned history, and that epoch's proofs must hold
// valid signatures of at least f+1 distinct servers over its recomputed hash
// (paper §2, Epoch-proofs). Returns the epoch number on success.
func (c *Client) VerifyCommitted(snap Snapshot, id wire.ElementID) (uint64, error) {
	for _, ep := range snap.History {
		for _, e := range ep.Elements {
			if e.ID != id {
				continue
			}
			if valid := c.CountValidProofs(ep); valid < c.f+1 {
				return ep.Number, fmt.Errorf("%w: %d of %d", ErrInsufficientProofs, valid, c.f+1)
			}
			return ep.Number, nil
		}
	}
	return 0, ErrNotInEpoch
}

// CountValidProofs returns how many distinct servers signed a valid proof
// among the epoch's proofs, verified against the hash recomputed from its
// content: a Byzantine server cannot fabricate f+1 signatures over a fake
// epoch, nor count one signer twice by listing its proof again.
func (c *Client) CountValidProofs(ep *Epoch) int {
	want := c.suite.HashData(wire.EpochHashInput(ep.Number, ep.Elements))
	var signers []wire.NodeID
	for _, p := range ep.Proofs {
		if p != nil && !slices.Contains(signers, p.Signer) &&
			wire.VerifyEpochProof(c.suite, c.registry, p, want) {
			signers = append(signers, p.Signer)
		}
	}
	return len(signers)
}
