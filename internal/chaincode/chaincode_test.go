package chaincode

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"socialchain/internal/msp"
	"socialchain/internal/statedb"
)

func testCtx(t *testing.T) TxContext {
	t.Helper()
	s, err := msp.NewSigner("org", "client", msp.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	return TxContext{TxID: "tx-1", ChannelID: "ch", Creator: s.Identity, Timestamp: time.Unix(1000, 0)}
}

// seededDB commits one transaction as block 1.
func seededDB(t *testing.T) *statedb.DB {
	t.Helper()
	db := statedb.New()
	t.Cleanup(func() { db.Close() })
	b := statedb.NewUpdateBatch()
	b.AddRWSetWrites(statedb.RWSet{Writes: []statedb.WriteItem{
		{Namespace: "cc", Key: "existing", Value: []byte("old")},
		{Namespace: "cc", Key: "scan/a", Value: []byte("1")},
		{Namespace: "cc", Key: "scan/b", Value: []byte("2")},
	}})
	db.ApplyBlockAt([]statedb.TxUpdate{{Batch: b, Version: statedb.Version{BlockNum: 1, TxNum: 0}}}, 1)
	return db
}

func TestGetStateRecordsRead(t *testing.T) {
	db := seededDB(t)
	sim := NewSimulator(testCtx(t), "cc", db)
	v, err := sim.GetState("existing")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "old" {
		t.Fatalf("value %q", v)
	}
	rw := sim.RWSet()
	if len(rw.Reads) != 1 || rw.Reads[0].Key != "existing" || !rw.Reads[0].Exists {
		t.Fatalf("reads = %+v", rw.Reads)
	}
	if rw.Reads[0].Version != (statedb.Version{BlockNum: 1, TxNum: 0}) {
		t.Fatalf("read version = %v", rw.Reads[0].Version)
	}
}

func TestGetStateAbsentRecordsNonExistence(t *testing.T) {
	db := seededDB(t)
	sim := NewSimulator(testCtx(t), "cc", db)
	v, err := sim.GetState("ghost")
	if err != nil || v != nil {
		t.Fatalf("v=%v err=%v", v, err)
	}
	rw := sim.RWSet()
	if len(rw.Reads) != 1 || rw.Reads[0].Exists {
		t.Fatalf("reads = %+v", rw.Reads)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	db := seededDB(t)
	sim := NewSimulator(testCtx(t), "cc", db)
	if err := sim.PutState("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, err := sim.GetState("k")
	if err != nil || string(v) != "new" {
		t.Fatalf("own write invisible: %q %v", v, err)
	}
	// Reading an own write must NOT add a read record (no version to check).
	rw := sim.RWSet()
	if len(rw.Reads) != 0 {
		t.Fatalf("reads = %+v", rw.Reads)
	}
	if len(rw.Writes) != 1 {
		t.Fatalf("writes = %+v", rw.Writes)
	}
}

// commitCC commits key=value in namespace "cc" at block n, as another
// peer's block landing mid-simulation would.
func commitCC(db *statedb.DB, n uint64, key, value string) {
	b := statedb.NewUpdateBatch()
	b.Put("cc", key, []byte(value))
	db.ApplyBlockAt([]statedb.TxUpdate{{Batch: b, Version: statedb.Version{BlockNum: n}}}, n)
}

// TestGetStateRepeatsWithinSimulation: a key read, then committed at a new
// version, reads back its first value, and the read set keeps the first
// version; a caller mutating a returned slice changes nothing.
func TestGetStateRepeatsWithinSimulation(t *testing.T) {
	db := seededDB(t)
	sim := NewSimulator(testCtx(t), "cc", db)
	first, err := sim.GetState("existing")
	if err != nil || string(first) != "old" {
		t.Fatalf("first read %q, %v", first, err)
	}
	first[0] = 'X'
	commitCC(db, 2, "existing", "new")
	for i := 0; i < 2; i++ {
		if v, err := sim.GetState("existing"); err != nil || string(v) != "old" {
			t.Fatalf("read %d after the commit: %q, %v", i, v, err)
		}
	}
	absent, _ := sim.GetState("ghost")
	commitCC(db, 3, "ghost", "boo")
	if v, _ := sim.GetState("ghost"); absent != nil || v != nil {
		t.Fatalf("absent key read %q, then %q", absent, v)
	}
	rw := sim.RWSet()
	if len(rw.Reads) != 2 || rw.Reads[0] != (statedb.ReadItem{Namespace: "cc", Key: "existing", Version: statedb.Version{BlockNum: 1}, Exists: true}) ||
		rw.Reads[1] != (statedb.ReadItem{Namespace: "cc", Key: "ghost"}) {
		t.Fatalf("reads = %+v", rw.Reads)
	}
}

// TestGetStateAfterRangeReadsThrough: a key first recorded by a range scan
// is not kept; GetState returns its committed value, and the read set
// keeps the version the scan saw.
func TestGetStateAfterRangeReadsThrough(t *testing.T) {
	db := seededDB(t)
	sim := NewSimulator(testCtx(t), "cc", db)
	if _, err := sim.GetStateByRange("scan/", "scan/\xff"); err != nil {
		t.Fatal(err)
	}
	if v, err := sim.GetState("scan/a"); err != nil || string(v) != "1" {
		t.Fatalf("scan/a = %q, %v", v, err)
	}
	commitCC(db, 2, "scan/a", "9")
	if v, err := sim.GetState("scan/a"); err != nil || string(v) != "9" {
		t.Fatalf("scan/a after a commit = %q, %v", v, err)
	}
	if r := sim.RWSet().Reads[0]; r.Key != "scan/a" || r.Version != (statedb.Version{BlockNum: 1}) {
		t.Fatalf("read = %+v", r)
	}
}

func TestDeleteVisibleInSimulation(t *testing.T) {
	db := seededDB(t)
	sim := NewSimulator(testCtx(t), "cc", db)
	if err := sim.DelState("existing"); err != nil {
		t.Fatal(err)
	}
	v, err := sim.GetState("existing")
	if err != nil || v != nil {
		t.Fatalf("deleted key visible: %q", v)
	}
	rw := sim.RWSet()
	if len(rw.Writes) != 1 || !rw.Writes[0].IsDelete {
		t.Fatalf("writes = %+v", rw.Writes)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	db := seededDB(t)
	sim := NewSimulator(testCtx(t), "cc", db)
	if err := sim.PutState("", []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := sim.DelState(""); err == nil {
		t.Fatal("empty key delete accepted")
	}
}

func TestRangeMergesPendingWrites(t *testing.T) {
	db := seededDB(t)
	sim := NewSimulator(testCtx(t), "cc", db)
	if err := sim.PutState("scan/c", []byte("3")); err != nil {
		t.Fatal(err)
	}
	if err := sim.DelState("scan/a"); err != nil {
		t.Fatal(err)
	}
	if err := sim.PutState("scan/b", []byte("2-updated")); err != nil {
		t.Fatal(err)
	}
	kvs, err := sim.GetStateByRange("scan/", "scan/\xff")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 2 {
		t.Fatalf("merged scan = %+v", kvs)
	}
	if kvs[0].Key != "scan/b" || string(kvs[0].Value) != "2-updated" {
		t.Fatalf("kvs[0] = %+v", kvs[0])
	}
	if kvs[1].Key != "scan/c" || string(kvs[1].Value) != "3" {
		t.Fatalf("kvs[1] = %+v", kvs[1])
	}
}

func TestEvents(t *testing.T) {
	db := seededDB(t)
	sim := NewSimulator(testCtx(t), "cc", db)
	if err := sim.SetEvent("", nil); err == nil {
		t.Fatal("empty event name accepted")
	}
	if err := sim.SetEvent("created", []byte("p")); err != nil {
		t.Fatal(err)
	}
	ev := sim.Events()
	if len(ev) != 1 || ev[0].Name != "created" || ev[0].TxID != "tx-1" {
		t.Fatalf("events = %+v", ev)
	}
}

func TestContextAccessors(t *testing.T) {
	db := seededDB(t)
	ctx := testCtx(t)
	sim := NewSimulator(ctx, "cc", db)
	if sim.GetTxID() != "tx-1" || sim.GetChannelID() != "ch" {
		t.Fatal("context accessors wrong")
	}
	if sim.GetCreator().ID() != ctx.Creator.ID() {
		t.Fatal("creator wrong")
	}
	if !sim.GetTxTimestamp().Equal(time.Unix(1000, 0)) {
		t.Fatal("timestamp wrong")
	}
}

func TestRWSetDeterministicOrder(t *testing.T) {
	db := seededDB(t)
	build := func(order []string) statedb.RWSet {
		sim := NewSimulator(testCtx(t), "cc", db)
		for _, k := range order {
			_, _ = sim.GetState(k)
			_ = sim.PutState(k, []byte("v"))
		}
		return sim.RWSet()
	}
	a := build([]string{"z", "a", "m"})
	b := build([]string{"m", "z", "a"})
	if !bytes.Equal(a.Digest(nil), b.Digest(nil)) {
		t.Fatal("rwset digest depends on access order")
	}
}

// crossCaller invokes another chaincode.
type crossCaller struct{}

func (crossCaller) Name() string { return "caller" }
func (crossCaller) Invoke(stub Stub, fn string, args [][]byte) ([]byte, error) {
	switch fn {
	case "callPut":
		if _, err := stub.InvokeChaincode("callee", "put", args); err != nil {
			return nil, err
		}
		return nil, stub.PutState("own-key", []byte("own-value"))
	case "recurse":
		return stub.InvokeChaincode("caller", "recurse", nil)
	default:
		return nil, errors.New("unknown fn")
	}
}

type callee struct{}

func (callee) Name() string { return "callee" }
func (callee) Invoke(stub Stub, fn string, args [][]byte) ([]byte, error) {
	if fn != "put" {
		return nil, errors.New("unknown fn")
	}
	return nil, stub.PutState(string(args[0]), args[1])
}

func TestInvokeChaincodeCrossNamespace(t *testing.T) {
	db := seededDB(t)
	reg := NewRegistry()
	if err := reg.Register(crossCaller{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(callee{}); err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(testCtx(t), "caller", db).WithRegistry(reg)
	cc, _ := reg.Get("caller")
	if _, err := cc.Invoke(sim, "callPut", [][]byte{[]byte("ck"), []byte("cv")}); err != nil {
		t.Fatal(err)
	}
	rw := sim.RWSet()
	if len(rw.Writes) != 2 {
		t.Fatalf("writes = %+v", rw.Writes)
	}
	// One write per namespace.
	ns := map[string]string{}
	for _, w := range rw.Writes {
		ns[w.Namespace] = w.Key
	}
	if ns["callee"] != "ck" || ns["caller"] != "own-key" {
		t.Fatalf("namespaces = %v", ns)
	}
}

func TestInvokeChaincodeDepthLimit(t *testing.T) {
	db := seededDB(t)
	reg := NewRegistry()
	if err := reg.Register(crossCaller{}); err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(testCtx(t), "caller", db).WithRegistry(reg)
	cc, _ := reg.Get("caller")
	_, err := cc.Invoke(sim, "recurse", nil)
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("recursion not bounded: %v", err)
	}
}

func TestInvokeChaincodeNoRegistry(t *testing.T) {
	db := seededDB(t)
	sim := NewSimulator(testCtx(t), "cc", db)
	if _, err := sim.InvokeChaincode("x", "y", nil); err == nil {
		t.Fatal("nil registry accepted")
	}
}

func TestInvokeChaincodeUnknown(t *testing.T) {
	db := seededDB(t)
	sim := NewSimulator(testCtx(t), "cc", db).WithRegistry(NewRegistry())
	if _, err := sim.InvokeChaincode("ghost", "fn", nil); err == nil {
		t.Fatal("unknown chaincode accepted")
	}
}

func TestRegistryDuplicate(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(callee{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(callee{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	names := reg.Names()
	if len(names) != 1 || names[0] != "callee" {
		t.Fatalf("names = %v", names)
	}
}

func TestGetQueryResult(t *testing.T) {
	db := seededDB(t)
	b := statedb.NewUpdateBatch()
	b.Put("cc", "doc1", []byte(`{"kind":"a"}`))
	b.Put("cc", "doc2", []byte(`{"kind":"b"}`))
	db.ApplyBlockAt([]statedb.TxUpdate{{Batch: b, Version: statedb.Version{BlockNum: 2}}}, 2)
	sim := NewSimulator(testCtx(t), "cc", db)
	got, err := sim.GetQueryResult(statedb.Selector{"kind": "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key != "doc1" {
		t.Fatalf("query = %+v", got)
	}
}
