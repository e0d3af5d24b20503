package consensus

import "repro/internal/setcrypto"

// SignVote signs a vote's canonical bytes, as a validator holding key
// would: the external tests forge Byzantine votes with it.
func SignVote(suite setcrypto.Suite, key setcrypto.KeyPair, v *Vote) []byte {
	n := &Node{}
	return suite.Sign(key, n.voteSignBytes(v))
}
