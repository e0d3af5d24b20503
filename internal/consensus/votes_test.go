package consensus

import "testing"

func TestVoteBookkeeping(t *testing.T) {
	rv := newRoundVotes()
	v := &Vote{Height: 1, Round: 0, Type: VotePrevote, BlockID: "abc", Voter: 1}
	if rv.voteOf(VotePrevote, 1) != nil {
		t.Fatal("vote found before any was cast")
	}
	rv.add(v)
	if rv.voteOf(VotePrevote, 1) != v {
		t.Fatal("voter's vote not indexed")
	}
	if rv.voteOf(VotePrecommit, 1) != nil || rv.voteOf(VotePrevote, 2) != nil {
		t.Fatal("vote indexed under another type or voter")
	}
	if _, ok := rv.quorumBlockID(VotePrevote, 2); ok {
		t.Fatal("quorum found with one vote")
	}
	rv.add(&Vote{Type: VotePrevote, BlockID: "abc", Voter: 2})
	if id, ok := rv.quorumBlockID(VotePrevote, 2); !ok || id != "abc" {
		t.Fatal("quorum not found with two votes")
	}
}

func TestVoteTypeString(t *testing.T) {
	if VotePrevote.String() != "prevote" || VotePrecommit.String() != "precommit" {
		t.Fatal("vote type strings wrong")
	}
}
