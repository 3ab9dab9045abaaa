package consensus

import (
	"fmt"
	"testing"

	"socialchain/internal/msp"
)

// evidenceReplica builds replica v1 of four, unstarted so the test drives
// it directly under its lock, holding leader v0's pre-prepare for
// (view 0, seq 1). It returns the replica and the four signers.
func evidenceReplica(t *testing.T) (*Validator, []*msp.Signer) {
	t.Helper()
	ids := []string{"v0", "v1", "v2", "v3"}
	signers := make([]*msp.Signer, len(ids))
	idents := make(map[string]msp.Identity, len(ids))
	for i, id := range ids {
		signers[i] = msp.NewSignerFromSeed("evidence-test", "org", id, msp.RoleMember)
		idents[id] = signers[i].Identity
	}
	v := NewValidator(Config{ID: "v1", Validators: ids, Signer: signers[1], Identities: idents, Sender: NewInProcNet(nil, nil)})
	v.mu.Lock()
	v.onPrePrepare(prePrepare(signers[0], "batch"))
	v.mu.Unlock()
	return v, signers
}

// prePrepare is leader s's signed pre-prepare of payload for (view 0, seq 1).
func prePrepare(s *msp.Signer, payload string) *Message {
	m := &Message{Type: MsgPrePrepare, Seq: 1, Digest: DigestOf([]byte(payload)), From: s.Identity.Name, Payload: []byte(payload)}
	m.Signature = s.Sign(m.SigningBytes())
	return m
}

// checkEvidence hands v a prepare from v2 for seq carrying evidence and
// reports how the replica's signature counters moved.
func checkEvidence(v *Validator, seq uint64, evidence []byte) (skipped, verified int64) {
	s0, v0 := v.VerifyCacheStats()
	v.mu.Lock()
	v.checkEquivocationEvidence(&Message{Type: MsgPrepare, Seq: seq, From: "v2", PrePrepareEvidence: evidence})
	v.mu.Unlock()
	s1, v1 := v.VerifyCacheStats()
	return s1 - s0, v1 - v0
}

// TestEvidenceIdenticalToOwnPrePrepareSkipsVerify: the evidence an honest
// replica embeds equals the local pre-prepare byte for byte and runs no
// ed25519; evidence with nothing local to compare against is not verified
// either. Neither convicts anyone.
func TestEvidenceIdenticalToOwnPrePrepareSkipsVerify(t *testing.T) {
	v, signers := evidenceReplica(t)
	own := prePrepare(signers[0], "batch").Encode()
	for i := 0; i < 3; i++ {
		if skipped, verified := checkEvidence(v, 1, own); skipped != 1 || verified != 0 {
			t.Fatalf("identical evidence: skipped %d, verified %d; want 1, 0", skipped, verified)
		}
	}
	if skipped, verified := checkEvidence(v, 2, prePrepare(signers[0], "other").Encode()); skipped != 0 || verified != 0 {
		t.Fatalf("evidence without a local pre-prepare: skipped %d, verified %d; want 0, 0", skipped, verified)
	}
	if got := v.EvictedPeers(); len(got) != 0 {
		t.Fatalf("evicted %v", got)
	}
}

// TestConflictingEvidenceVerifiedBeforeEviction: a pre-prepare for the same
// slot with another payload convicts the leader only when the leader's
// signature on it holds.
func TestConflictingEvidenceVerifiedBeforeEviction(t *testing.T) {
	v, signers := evidenceReplica(t)
	forged := prePrepare(signers[0], "other")
	forged.Signature[0] ^= 0x01
	if _, verified := checkEvidence(v, 1, forged.Encode()); verified != 1 {
		t.Fatalf("conflicting evidence ran ed25519 %d times, want 1", verified)
	}
	if got := v.EvictedPeers(); len(got) != 0 {
		t.Fatalf("a badly signed conflict evicted %v", got)
	}
	if _, verified := checkEvidence(v, 1, prePrepare(signers[0], "other").Encode()); verified != 1 {
		t.Fatalf("conflicting evidence ran ed25519 %d times, want 1", verified)
	}
	if got := fmt.Sprint(v.EvictedPeers()); got != "[v0]" {
		t.Fatalf("evicted %s after a validly signed conflict, want [v0]", got)
	}
}
