package core

import (
	"time"

	"repro/internal/codec"
	"repro/internal/collector"
	"repro/internal/compressor"
	"repro/internal/wire"
)

// compressAlg implements Algorithm Compresschain (paper §3): elements and
// epoch-proofs accumulate in the collector; a ready batch is compressed and
// appended to the ledger as a single transaction; each transaction in a
// committed block decompresses into one epoch.
//
// The Light variant (paper Fig. 2's "Compresschain Light") skips
// decompression and element validation CPU, measuring their impact.
type compressAlg struct {
	s   *Server
	seq uint64
}

func newCompressAlg(s *Server) *compressAlg {
	c := &compressAlg{s: s}
	s.coll = collector.New(s.sim, s.opts.CollectorLimit, s.opts.CollectorTimeout, c.flushBatch)
	return c
}

func (c *compressAlg) onAdd(e *wire.Element) { c.s.coll.AddElement(e) }

func (c *compressAlg) checkTx(tx *wire.Tx) bool { return true }

func (c *compressAlg) drain() { c.s.coll.Flush() }

// flushBatch is the isReady(batch) handler: compress and append.
func (c *compressAlg) flushBatch(b *wire.Batch) {
	s := c.s
	s.injectBogus(b)
	raw := b.RawSize()
	cb := &wire.CompressedBatch{Origin: s.id, Seq: c.seq}
	c.seq++
	if s.opts.Mode == Full {
		blob, err := compressor.Deflate{}.Compress(codec.EncodeBatch(b))
		if err != nil {
			return // cannot happen with flate on valid input
		}
		cb.Data = blob
		cb.CompSize = len(blob)
	} else {
		cb.CompSize = compressor.PaperRatioModel().CompressedSize(b.Len(), raw)
		cb.Original = b
	}
	s.chargeCPU(time.Duration(raw)*s.opts.Costs.CompressPerByte + s.opts.Costs.PerBatch)
	tx := wire.NewCompressedTx(cb)
	if s.rec != nil {
		s.rec.RegisterCarrier(tx.MapKey(), b.Elements)
	}
	s.node.Append(tx)
}

// decode recovers the original batch from a compressed transaction, or nil
// if the blob is corrupt (a Byzantine server's garbage).
func (c *compressAlg) decode(cb *wire.CompressedBatch) *wire.Batch {
	if c.s.opts.Mode == Full {
		data, err := compressor.Deflate{}.Decompress(cb.Data)
		if err != nil {
			return nil
		}
		b, err := codec.DecodeBatch(data)
		if err != nil {
			return nil
		}
		return b
	}
	return cb.Original
}

func (c *compressAlg) processBlock(b *wire.Block, done func()) {
	s := c.s
	type item struct {
		batch *wire.Batch
	}
	var items []item
	var cost time.Duration
	for _, tx := range b.Txs {
		if tx.Kind != wire.TxCompressedBatch {
			continue
		}
		batch := c.decode(tx.Compressed)
		items = append(items, item{batch: batch})
		if batch == nil {
			continue
		}
		cost += s.opts.Costs.PerBatch
		if s.opts.Light {
			// Light skips decompression and validation entirely; only
			// bookkeeping cost remains.
			cost += time.Duration(len(batch.Elements)) * s.opts.Costs.PerElement
			continue
		}
		cost += time.Duration(batch.RawSize()) * s.opts.Costs.DecompressPerByte
		cost += time.Duration(len(batch.Elements)) *
			(s.opts.Costs.VerifyElement + s.opts.Costs.PerElement)
	}
	s.runCosted(cost, func() {
		for _, it := range items {
			batch := it.batch
			if batch == nil || batch.Empty() {
				continue // paper line 21: undecodable or empty -> skip
			}
			for _, p := range batch.Proofs {
				s.acceptProof(p)
			}
			// Proof-only (or fully duplicate) batches contribute no epoch;
			// see the quiescence note on vanillaAlg.
			if p := s.createEpoch(s.valid(batch.Elements)); p != nil {
				s.coll.AddProof(p)
			}
		}
		done()
	})
}
