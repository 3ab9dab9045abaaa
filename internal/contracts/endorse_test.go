package contracts

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/msp"
	"socialchain/internal/statedb"
	"socialchain/internal/storage"
)

// countingState counts the committed-state reads a simulation makes, by
// "ns/key".
type countingState struct {
	*statedb.DB
	gets map[string]int
}

func (c countingState) GetState(ns, key string) (statedb.VersionedValue, bool) {
	c.gets[ns+"/"+key]++
	return c.DB.GetState(ns, key)
}

// simulate runs calls on one simulator as creator over the world's
// committed state, without committing.
func (w *world) simulate(state chaincode.State, creator msp.Identity, txID string, calls []chaincode.BatchCall) *chaincode.Simulator {
	w.t.Helper()
	sim := chaincode.NewSimulator(chaincode.TxContext{
		TxID: txID, ChannelID: "ch", Creator: creator, Timestamp: time.Unix(1700000000, 0),
	}, DataCC, state).WithRegistry(w.reg)
	if _, err := sim.InvokeBatch(calls); err != nil {
		w.t.Fatal(err)
	}
	return sim
}

// addDataCalls is a batch of n addData calls over the same metadata.
func addDataCalls(n int, metaJSON string) []chaincode.BatchCall {
	calls := make([]chaincode.BatchCall, n)
	for i := range calls {
		calls[i] = chaincode.BatchCall{Chaincode: DataCC, Fn: "addData",
			Args: [][]byte{[]byte(fmt.Sprintf("cid-%d", i)), []byte(metaJSON)}}
	}
	return calls
}

// endorseWorld has an admin, a trusted camera whose one committed record
// filled a slot of the reference ring, and an untrusted crowd source.
func endorseWorld(t testing.TB, cfg storage.Config) (w *world, cam, crowd msp.Identity, metaJSON string) {
	w = newWorldOn(t, cfg)
	admin := w.admin()
	cam = w.user(admin, "city", "cam", true)
	crowd = w.user(admin, "crowd", "alice", false)
	_, metaJSON = sampleMeta(t, 91)
	if _, err := w.invoke(cam, DataCC, "addData", "cid-ref", metaJSON); err != nil {
		t.Fatal(err)
	}
	return w, cam, crowd, metaJSON
}

// TestAddDataReadWriteKeys pins the keys one addData reads and writes,
// for a trusted and an untrusted source: validation runs in-process, and
// its reads land in the users and trust namespaces as they did when it
// ran as a cross-chaincode call.
func TestAddDataReadWriteKeys(t *testing.T) {
	w, cam, crowd, metaJSON := endorseWorld(t, storage.Config{})
	keys := func(creator msp.Identity) (reads, writes []string) {
		rw := w.simulate(w.db, creator, "tx-pin", addDataCalls(1, metaJSON)).RWSet()
		for _, r := range rw.Reads {
			reads = append(reads, r.Namespace+"/"+r.Key)
		}
		for _, wr := range rw.Writes {
			writes = append(writes, wr.Namespace+"/"+wr.Key)
		}
		return reads, writes
	}
	for _, c := range []struct {
		name          string
		creator       msp.Identity
		reads, writes []string
	}{
		{"trusted", cam,
			[]string{"data/head/city/cam", "data/rec/tx-pin.0", "data/refs/next",
				"trust/params", "trust/score/city/cam", "users/user/city/cam"},
			[]string{"data/head/city/cam", "data/rec/tx-pin.0", "data/refs/next", "data/refs/slot/01",
				"trust/score/city/cam"}},
		{"untrusted", crowd,
			[]string{"data/head/crowd/alice", "data/rec/tx-pin.0", "data/refs/next", "data/refs/slot/00",
				"trust/params", "trust/score/crowd/alice", "users/user/crowd/alice"},
			[]string{"data/head/crowd/alice", "data/rec/tx-pin.0", "trust/score/crowd/alice"}},
	} {
		reads, writes := keys(c.creator)
		if !reflect.DeepEqual(reads, c.reads) {
			t.Errorf("%s: reads\n got %q\nwant %q", c.name, reads, c.reads)
		}
		if !reflect.DeepEqual(writes, c.writes) {
			t.Errorf("%s: writes\n got %q\nwant %q", c.name, writes, c.writes)
		}
	}
}

// TestAddDataBatchReadsEachKeyOnce: a 100-call addData batch reads the
// source's user record from the state database once, and no key twice.
func TestAddDataBatchReadsEachKeyOnce(t *testing.T) {
	w, cam, crowd, metaJSON := endorseWorld(t, storage.Config{})
	for _, creator := range []msp.Identity{cam, crowd} {
		state := countingState{w.db, map[string]int{}}
		w.simulate(state, creator, "tx-count", addDataCalls(100, metaJSON))
		if n := state.gets["users/user/"+creator.ID()]; n != 1 {
			t.Errorf("%s: user record read %d times, want 1", creator.ID(), n)
		}
		for key, n := range state.gets {
			if n != 1 {
				t.Errorf("%s: %s read %d times", creator.ID(), key, n)
			}
		}
	}
}

// BenchmarkAddDataBatch endorses one 100-record addData batch from a
// trusted source on one simulator over a persist world state, as a peer
// endorses an ingest batch.
func BenchmarkAddDataBatch(b *testing.B) {
	w, cam, _, metaJSON := endorseWorld(b, storage.Config{Dir: b.TempDir()})
	calls := addDataCalls(100, metaJSON)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.simulate(w.db, cam, "tx-bench", calls)
	}
}
