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
	// slab holds the modeled elements not handed out yet. Each refill is
	// twice the last, from 16 up to 1,024 elements, so a client that makes
	// a few elements allocates little and one that makes many allocates
	// once per thousand.
	slab     []wire.Element
	slabSize int
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
	hdr := wire.Element{ID: wire.NewElementID(c.id, c.seq), Client: c.id, Seq: c.seq}
	return wire.NewSignedElement(hdr, payload, func(msg []byte) []byte { return c.suite.Sign(c.key, msg) })
}

// NewModeledElement creates a payload-free element with the given wire
// size, for Modeled-mode simulations. It is taken from the client's slab.
// A size past wire.MaxElementSize panics; spec validation keeps sampled
// sizes below it.
func (c *Client) NewModeledElement(size int) *wire.Element {
	if size > wire.MaxElementSize {
		panic(fmt.Sprintf("core: modeled element of %d bytes exceeds wire.MaxElementSize", size))
	}
	if len(c.slab) == 0 {
		c.slabSize = min(max(2*c.slabSize, 16), 1024)
		c.slab = make([]wire.Element, c.slabSize)
	}
	e := &c.slab[0]
	c.slab = c.slab[1:]
	c.seq++
	*e = wire.Element{ID: wire.NewElementID(c.id, c.seq), Client: c.id, Seq: c.seq, Size: int32(size)}
	return e
}

// Verification errors.
var (
	ErrNotInEpoch         = errors.New("setchain: element not assigned to an epoch yet")
	ErrInsufficientProofs = errors.New("setchain: fewer than f+1 valid epoch-proofs")
	ErrMalformedHistory   = errors.New("setchain: history holds a nil epoch or element")
)

// VerifyCommitted checks — trusting nothing but the PKI — that the element
// is committed according to a server's get() response: the element must be
// in some epoch of the returned history, and that epoch's proofs must hold
// valid signatures of at least f+1 distinct servers over its recomputed hash
// (paper §2, Epoch-proofs). Returns the epoch number on success. A history
// with a nil epoch or element before the element's epoch, or in it, is
// malformed.
func (c *Client) VerifyCommitted(snap Snapshot, id wire.ElementID) (uint64, error) {
	for _, ep := range snap.History {
		if ep == nil || slices.Contains(ep.Elements, nil) {
			return 0, ErrMalformedHistory
		}
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
// epoch, nor count one signer twice by listing its proof again. A nil epoch,
// or one holding a nil element, has none.
func (c *Client) CountValidProofs(ep *Epoch) int {
	if ep == nil || slices.Contains(ep.Elements, nil) {
		return 0
	}
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
