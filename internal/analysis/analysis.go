// Package analysis implements the paper's analytical performance model
// (Appendix D): closed-form estimates of each algorithm's stationary
// throughput as a function of the system parameters, used in Figs. 1 and 2
// as the dotted/dashed reference lines and swept over block sizes for
// Fig. 2 (right).
//
// With n servers all correct, epoch-proof length lp, element length le,
// hash-batch length lh, ledger block capacity C, block rate R and collector
// size c:
//
//	Vanilla:        Tv = R · (C − n·lp) / le
//	Compresschain:  Tc = R · (c−n) · C / ℓ,  ℓ = ((c−n)·le + n·lp) / r
//	Hashchain:      Th = R · (c−n) · C / (n·lh)
//
// See DESIGN.md §2 (layering).
package analysis

import "repro/internal/compressor"

// Params are the model inputs (Appendix D / §4 defaults).
type Params struct {
	N             int     // servers
	BlockBytes    float64 // C, ledger block capacity in bytes
	BlockRate     float64 // R, blocks per second
	ElementLen    float64 // le, average element size in bytes
	ProofLen      float64 // lp, epoch-proof size in bytes
	HashBatchLen  float64 // lh, hash-batch size in bytes
	CollectorSize int     // c
	CompressRatio float64 // r, for Compresschain
}

// PaperParams returns the evaluation's configuration: n=10, C=0.5 MiB,
// R=0.8 blocks/s, le=438, lp=lh=139.
func PaperParams() Params {
	return Params{
		N:            10,
		BlockBytes:   512 * 1024, // the paper's "0.5 MB" is 0.5 MiB (reproduces D.1 exactly)
		BlockRate:    0.8,
		ElementLen:   438,
		ProofLen:     139,
		HashBatchLen: 139,
	}
}

// VanillaThroughput returns Tv in elements/second: each block carries n
// epoch-proofs plus elements.
func VanillaThroughput(p Params) float64 {
	usable := p.BlockBytes - float64(p.N)*p.ProofLen
	if usable <= 0 {
		return 0
	}
	return p.BlockRate * usable / p.ElementLen
}

// CompresschainThroughput returns Tc in elements/second for the given
// collector size: each epoch batch holds c−n elements and n proofs,
// compressed with ratio r — p.CompressRatio, or when zero the modeled
// codec's ratio for c (compressor.Ratio: the paper's r ≈ 2.7 at c = 100
// and r ≈ 3.5 at c = 500, §D.1).
func CompresschainThroughput(p Params) float64 {
	c := float64(p.CollectorSize)
	n := float64(p.N)
	if c <= n {
		return 0
	}
	r := p.CompressRatio
	if r == 0 {
		r = compressor.Ratio(p.CollectorSize)
	}
	l := ((c-n)*p.ElementLen + n*p.ProofLen) / r
	return p.BlockRate * (c - n) * p.BlockBytes / l
}

// HashchainThroughput returns Th in elements/second: n hash-batches of lh
// bytes on the ledger per consolidated epoch of c−n elements.
func HashchainThroughput(p Params) float64 {
	c := float64(p.CollectorSize)
	n := float64(p.N)
	if c <= n {
		return 0
	}
	return p.BlockRate * (c - n) * p.BlockBytes / (n * p.HashBatchLen)
}

// D1Row is one line of the Appendix D.1 table.
type D1Row struct {
	Label      string
	Collector  int
	Throughput float64
}

// D1Table reproduces Appendix D.1's five analytical numbers with the
// paper's parameters: Tv ≈ 955, Tc[100] ≈ 2497, Tc[500] ≈ 3330,
// Th[100] ≈ 27157, Th[500] ≈ 147857 el/s.
func D1Table() []D1Row {
	p := PaperParams()
	rows := []D1Row{{Label: "Vanilla", Throughput: VanillaThroughput(p)}}
	for _, c := range []int{100, 500} {
		pc := p
		pc.CollectorSize = c
		rows = append(rows, D1Row{
			Label:      "Compresschain",
			Collector:  c,
			Throughput: CompresschainThroughput(pc),
		})
	}
	for _, c := range []int{100, 500} {
		pc := p
		pc.CollectorSize = c
		rows = append(rows, D1Row{
			Label:      "Hashchain",
			Collector:  c,
			Throughput: HashchainThroughput(pc),
		})
	}
	return rows
}

// BlockSizePoint is one sample of the Fig. 2 (right) sweep.
type BlockSizePoint struct {
	BlockMB       float64
	Vanilla       float64
	Compresschain float64
	Hashchain     float64
}

// BlockSizeSweep reproduces Fig. 2 (right): analytical throughput of the
// three algorithms for block sizes 0.5–128 MB with collector size 500 and
// the other parameters held at the paper's values.
func BlockSizeSweep() []BlockSizePoint {
	var out []BlockSizePoint
	for mb := 0.5; mb <= 128; mb *= 2 {
		p := PaperParams()
		p.BlockBytes = mb * 1024 * 1024
		p.CollectorSize = 500
		out = append(out, BlockSizePoint{
			BlockMB:       mb,
			Vanilla:       VanillaThroughput(p),
			Compresschain: CompresschainThroughput(p),
			Hashchain:     HashchainThroughput(p),
		})
	}
	return out
}
