package core

import (
	"slices"

	"repro/internal/wire"
)

// Settled returns the settled-prefix watermark: epochs 1..Settled have
// f+1 proofs locally.
func (s *Server) Settled() uint64 { return s.settled }

// ServeSubsetBatches makes Hashchain server srv answer every request for a
// batch it holds with a batch that is not the one asked for yet holds only
// valid elements: the batch less one element, a different one for each
// requester. Element validation passes it; only the requester's check that
// the batch hashes to the requested hash can refuse it.
func ServeSubsetBatches(srv *Server) {
	h := srv.alg.(*hashchainAlg)
	srv.node.SetAppMsgHandler(func(from wire.NodeID, payload any, size int) {
		req, ok := payload.(*batchRequest)
		if !ok {
			srv.onAppMsg(from, payload, size)
			return
		}
		r := h.lookup(req.hash)
		if r == nil || r.batch == nil || len(r.batch.Elements) == 0 {
			srv.onAppMsg(from, payload, size)
			return
		}
		b := r.batch
		drop := int(from) % len(b.Elements)
		wrong := &wire.Batch{Elements: slices.Delete(slices.Clone(b.Elements), drop, drop+1), Proofs: b.Proofs}
		resp := &batchResponse{hash: req.hash, reqID: req.reqID, batch: wrong}
		srv.node.Send(from, resp, resp.wireSize())
	})
}

// CreateEpoch makes the next epoch of elems, as a consolidated batch or a
// processed block would.
func (s *Server) CreateEpoch(elems []*wire.Element) { s.createEpoch(elems) }
