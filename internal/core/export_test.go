package core

// Settled returns the settled-prefix watermark: epochs 1..Settled have
// f+1 proofs locally.
func (s *Server) Settled() uint64 { return s.settled }
