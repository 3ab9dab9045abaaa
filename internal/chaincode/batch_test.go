package chaincode

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// batchCC exercises batch semantics: "own" keys a record under the
// current transaction ID, "incr" bumps a shared counter, "boom" fails.
type batchCC struct{}

func (batchCC) Name() string { return "bcc" }

func (batchCC) Invoke(stub Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "own":
		key := "rec/" + stub.GetTxID()
		if existing, err := stub.GetState(key); err != nil {
			return nil, err
		} else if existing != nil {
			return nil, fmt.Errorf("record %s already exists", key)
		}
		if err := stub.PutState(key, args[0]); err != nil {
			return nil, err
		}
		return []byte(stub.GetTxID()), nil
	case "incr":
		raw, err := stub.GetState("counter")
		if err != nil {
			return nil, err
		}
		n := 0
		if len(raw) > 0 {
			fmt.Sscanf(string(raw), "%d", &n)
		}
		n++
		out := []byte(fmt.Sprintf("%d", n))
		return out, stub.PutState("counter", out)
	case "boom":
		return nil, errors.New("poisoned call")
	default:
		return nil, fmt.Errorf("unknown fn %q", fn)
	}
}

func batchSim(t *testing.T) *Simulator {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register(batchCC{}); err != nil {
		t.Fatal(err)
	}
	db := seededDB(t)
	return NewSimulator(testCtx(t), "bcc", db).WithRegistry(reg)
}

// TestInvokeBatchSubTxIDs checks each call runs under its own
// sub-transaction ID, so TxID-derived state keys stay collision-free.
func TestInvokeBatchSubTxIDs(t *testing.T) {
	sim := batchSim(t)
	calls := []BatchCall{
		{Chaincode: "bcc", Fn: "own", Args: [][]byte{[]byte("a")}},
		{Chaincode: "bcc", Fn: "own", Args: [][]byte{[]byte("b")}},
		{Chaincode: "bcc", Fn: "own", Args: [][]byte{[]byte("c")}},
	}
	resps, err := sim.InvokeBatch(calls)
	if err != nil {
		t.Fatalf("InvokeBatch: %v", err)
	}
	for i, r := range resps {
		want := SubTxID("tx-1", i)
		if string(r) != want {
			t.Fatalf("call %d response = %s, want %s", i, r, want)
		}
	}
	rw := sim.RWSet()
	wrote := map[string]bool{}
	for _, w := range rw.Writes {
		wrote[w.Key] = true
	}
	for i := range calls {
		if !wrote["rec/"+SubTxID("tx-1", i)] {
			t.Fatalf("missing write for call %d; writes: %v", i, wrote)
		}
	}
	// Outside the batch, GetTxID reverts to the envelope ID.
	if got := sim.GetTxID(); got != "tx-1" {
		t.Fatalf("GetTxID after batch = %s", got)
	}
}

// TestInvokeBatchReadsOwnWrites checks later calls observe earlier calls'
// uncommitted writes and the merged RWSet carries one final write.
func TestInvokeBatchReadsOwnWrites(t *testing.T) {
	sim := batchSim(t)
	calls := []BatchCall{
		{Chaincode: "bcc", Fn: "incr"},
		{Chaincode: "bcc", Fn: "incr"},
		{Chaincode: "bcc", Fn: "incr"},
	}
	resps, err := sim.InvokeBatch(calls)
	if err != nil {
		t.Fatalf("InvokeBatch: %v", err)
	}
	if string(resps[2]) != "3" {
		t.Fatalf("third incr = %s, want 3", resps[2])
	}
	rw := sim.RWSet()
	counterWrites := 0
	for _, w := range rw.Writes {
		if w.Key == "counter" {
			counterWrites++
			if string(w.Value) != "3" {
				t.Fatalf("counter write = %s", w.Value)
			}
		}
	}
	if counterWrites != 1 {
		t.Fatalf("counter written %d times in RWSet", counterWrites)
	}
	// Only the first touch records a committed read.
	reads := 0
	for _, r := range rw.Reads {
		if r.Key == "counter" {
			reads++
			if r.Exists {
				t.Fatalf("counter read recorded as existing")
			}
		}
	}
	if reads != 1 {
		t.Fatalf("counter read %d times in RWSet", reads)
	}
}

// TestInvokeBatchFailureAborts checks all-or-nothing semantics.
func TestInvokeBatchFailureAborts(t *testing.T) {
	sim := batchSim(t)
	_, err := sim.InvokeBatch([]BatchCall{
		{Chaincode: "bcc", Fn: "incr"},
		{Chaincode: "bcc", Fn: "boom"},
	})
	if err == nil || !strings.Contains(err.Error(), "batch call 1") {
		t.Fatalf("err = %v, want batch call 1 failure", err)
	}
	if got := sim.GetTxID(); got != "tx-1" {
		t.Fatalf("GetTxID after failed batch = %s", got)
	}
}

// TestInvokeBatchValidation covers the empty-batch and unknown-chaincode
// errors.
func TestInvokeBatchValidation(t *testing.T) {
	sim := batchSim(t)
	if _, err := sim.InvokeBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := sim.InvokeBatch([]BatchCall{{Chaincode: "nope", Fn: "x"}}); err == nil {
		t.Fatal("unknown chaincode accepted")
	}
	db := seededDB(t)
	bare := NewSimulator(testCtx(t), "bcc", db)
	if _, err := bare.InvokeBatch([]BatchCall{{Chaincode: "bcc", Fn: "incr"}}); err == nil {
		t.Fatal("registry-less batch accepted")
	}
}
