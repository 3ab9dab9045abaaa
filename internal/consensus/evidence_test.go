package consensus

import (
	"fmt"
	"testing"

	"socialchain/internal/msp"
	"socialchain/internal/transport"
)

// evidenceReplica builds replica v1 of four, unstarted so the test drives
// it directly under its lock, holding leader v0's pre-prepare of payload
// for (view 0, seq 1). It returns the replica, the four signers and the
// frames v2's endpoint received from it: the prepare it broadcast.
func evidenceReplica(t *testing.T, payload string) (*Validator, []*msp.Signer, [][]byte) {
	t.Helper()
	ids := []string{"v0", "v1", "v2", "v3"}
	signers := make([]*msp.Signer, len(ids))
	idents := make(map[string]msp.Identity, len(ids))
	for i, id := range ids {
		signers[i] = msp.NewSignerFromSeed("evidence-test", "org", id, msp.RoleMember)
		idents[id] = signers[i].Identity
	}
	hub := transport.NewInProcNet(nil, nil)
	var sent [][]byte // zero latency: delivery runs on the sender's goroutine
	hub.Node("v2").Handle(busStreamPrefix+"main", func(_ string, frame []byte) error {
		sent = append(sent, frame)
		return nil
	})
	v := NewValidator(Config{ID: "v1", Validators: ids, Signer: signers[1], Identities: idents, Sender: NewBus(hub.Node("v1"), "main")})
	v.mu.Lock()
	v.onPrePrepare(prePrepare(signers[0], payload))
	v.mu.Unlock()
	return v, signers, sent
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

// TestEvidenceIdenticalToOwnPrePrepareSkipsVerify: the header an honest
// replica embeds equals the local pre-prepare's header byte for byte and
// runs no ed25519; evidence with nothing local to compare against is not
// verified either. Neither convicts anyone.
func TestEvidenceIdenticalToOwnPrePrepareSkipsVerify(t *testing.T) {
	v, signers, _ := evidenceReplica(t, "batch")
	own := prePrepare(signers[0], "batch").encodeHeader()
	for i := 0; i < 3; i++ {
		if skipped, verified := checkEvidence(v, 1, own); skipped != 1 || verified != 0 {
			t.Fatalf("identical evidence: skipped %d, verified %d; want 1, 0", skipped, verified)
		}
	}
	if skipped, verified := checkEvidence(v, 2, prePrepare(signers[0], "other").encodeHeader()); skipped != 0 || verified != 0 {
		t.Fatalf("evidence without a local pre-prepare: skipped %d, verified %d; want 0, 0", skipped, verified)
	}
	if got := v.EvictedPeers(); len(got) != 0 {
		t.Fatalf("evicted %v", got)
	}
}

// TestConflictingEvidenceVerifiedBeforeEviction: a pre-prepare header for
// the same slot naming another digest convicts the leader only when the
// leader's signature on it holds.
func TestConflictingEvidenceVerifiedBeforeEviction(t *testing.T) {
	v, signers, _ := evidenceReplica(t, "batch")
	forged := prePrepare(signers[0], "other")
	forged.Signature[0] ^= 0x01
	if _, verified := checkEvidence(v, 1, forged.encodeHeader()); verified != 1 {
		t.Fatalf("conflicting evidence ran ed25519 %d times, want 1", verified)
	}
	if got := v.EvictedPeers(); len(got) != 0 {
		t.Fatalf("a badly signed conflict evicted %v", got)
	}
	if _, verified := checkEvidence(v, 1, prePrepare(signers[0], "other").encodeHeader()); verified != 1 {
		t.Fatalf("conflicting evidence ran ed25519 %d times, want 1", verified)
	}
	if got := fmt.Sprint(v.EvictedPeers()); got != "[v0]" {
		t.Fatalf("evicted %s after a validly signed conflict, want [v0]", got)
	}
}

// TestPrepareIsHeaderSized: the prepare a replica broadcasts for a 1 MiB
// pre-prepare carries the leader's signed header as evidence, not the
// batch.
func TestPrepareIsHeaderSized(t *testing.T) {
	batch := string(make([]byte, 1<<20))
	_, signers, sent := evidenceReplica(t, batch)
	if len(sent) != 1 {
		t.Fatalf("v2 received %d frames, want the one prepare", len(sent))
	}
	if n := len(sent[0]); n >= 256 {
		t.Fatalf("the prepare for a 1 MiB pre-prepare encodes to %d bytes, want < 256", n)
	}
	prep, err := DecodeMessage(sent[0])
	if err != nil || prep.Type != MsgPrepare {
		t.Fatalf("v2 received %v (%v), want a prepare", prep, err)
	}
	hdr, err := DecodeMessage(prep.PrePrepareEvidence)
	if err != nil || hdr.Type != MsgPrePrepare || hdr.Payload != nil || hdr.Digest != DigestOf([]byte(batch)) {
		t.Fatalf("evidence decodes to %+v (%v), want the leader's pre-prepare header", hdr, err)
	}
	if !signers[0].Identity.Verify(hdr.SigningBytes(), hdr.Signature) {
		t.Fatal("the leader's signature on the header does not verify")
	}
}
