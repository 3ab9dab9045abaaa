package consensus

import (
	"encoding/binary"
	"testing"
	"time"
)

// retainedPayloadBytes sums the request bytes a validator still pins:
// instance payloads and pre-prepare headers, and requests waiting to be
// decided.
func (v *Validator) retainedPayloadBytes() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, inst := range v.insts {
		n += len(inst.payload) + len(inst.prePrepare)
	}
	for _, req := range v.pending {
		n += len(req.payload)
	}
	return n
}

// TestExecutedInstancesReleasePayloads decides 200 batches of 256 KiB.
// The pruning window keeps the last 64 instances; if each still held its
// payload, every validator would pin 64 * 256 KiB = 16 MiB of bytes it has
// already delivered.
func TestExecutedInstancesReleasePayloads(t *testing.T) {
	const decisions, size = 200, 256 << 10
	h := newHarnessCfg(t, 4, nil, 5*time.Second, func(c *Config) {
		record := c.Deliver
		c.Deliver = func(seq uint64, payload []byte) {
			record(seq, payload[:8]) // the harness log keeps the tag, not the batch
		}
	})
	for k := 0; k < decisions; k++ {
		payload := make([]byte, size)
		binary.BigEndian.PutUint64(payload, uint64(k))
		h.validators[k%4].Propose(payload)
		if k%10 == 9 { // bound what is in flight, as the ordering service's backlog does
			for i := range h.validators {
				if !h.waitDelivered(i, k+1, 30*time.Second) {
					t.Fatalf("validator %d delivered %d/%d", i, len(h.deliveredAt(i)), k+1)
				}
			}
		}
	}
	for i, v := range h.validators {
		if got := len(h.deliveredAt(i)); got != decisions {
			t.Fatalf("validator %d delivered %d payloads, want %d", i, got, decisions)
		}
		if got := v.retainedPayloadBytes(); got >= 2<<20 {
			t.Fatalf("validator %d retains %d payload bytes after %d decisions, want < 2 MiB", i, got, decisions)
		}
	}
}

// TestViewChangeRequeuesOnlyUnexecuted: entering a view discards the
// instances that were not executed and puts their requests back in the
// pending set; executed ones — which no longer hold a payload — stay as
// they are and nothing of theirs is proposed again.
func TestViewChangeRequeuesOnlyUnexecuted(t *testing.T) {
	h := newHarness(t, 4, nil, time.Hour)
	v := h.validators[1]
	v.Stop() // drive the state machine by hand

	done, open := []byte("decided"), []byte("in flight")
	v.mu.Lock()
	defer v.mu.Unlock()
	v.insts[1] = &instance{digest: DigestOf(done), executed: true, sentCommit: true}
	v.delivered[DigestOf(done)] = true
	v.lastExec = 1
	v.insts[2] = v.newInstance(0, 2, DigestOf(open), open)
	v.enterView(1, 2)

	if inst, ok := v.insts[1]; !ok || !inst.executed {
		t.Fatal("view change dropped the executed instance")
	}
	if _, ok := v.insts[2]; ok {
		t.Fatal("view change kept an unexecuted instance of the old view")
	}
	if len(v.pending) != 1 {
		t.Fatalf("%d requests pending after the view change, want 1", len(v.pending))
	}
	req, ok := v.pending[DigestOf(open)]
	if !ok || req.inFlight || string(req.payload) != string(open) {
		t.Fatalf("unexecuted request was not put back for proposal: %+v", req)
	}
}
