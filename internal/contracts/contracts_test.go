package contracts

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"socialchain/internal/chaincode"
	"socialchain/internal/dataset"
	"socialchain/internal/detect"
	"socialchain/internal/msp"
	"socialchain/internal/statedb"
	"socialchain/internal/storage"
	"socialchain/internal/trust"
)

// world is a direct-execution test harness: it runs chaincodes through
// simulators against a shared state, committing writes immediately —
// endorsement and consensus are exercised elsewhere.
type world struct {
	t       testing.TB
	db      *statedb.DB
	history *statedb.HistoryDB
	reg     *chaincode.Registry
	height  uint64
	blocks  map[uint64]worldTx // each committed invocation is its own block
}

// worldTx is what a history reference resolves to.
type worldTx struct {
	id     string
	ts     time.Time
	writes []statedb.WriteItem
}

func newWorld(t testing.TB) *world { return newWorldOn(t, storage.Config{}) }

// newWorldOn is newWorld on the engine cfg selects.
func newWorldOn(t testing.TB, cfg storage.Config) *world {
	t.Helper()
	// The world state runs with the production secondary-index set, as
	// peers do, so contract-level index queries are exercised here.
	db, err := statedb.NewIndexedWith(cfg, DataIndexes()...)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, db: db, reg: chaincode.NewRegistry(), height: 1, blocks: make(map[uint64]worldTx)}
	w.history = statedb.NewHistoryDB(db, func(n uint64, _ uint32) (string, time.Time, []statedb.WriteItem, error) {
		tx, ok := w.blocks[n]
		if !ok {
			return "", time.Time{}, nil, statedb.ErrNotVisible
		}
		return tx.id, tx.ts, tx.writes, nil
	})
	for _, cc := range All() {
		if err := w.reg.Register(cc); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// invoke runs fn as creator and commits the writes on success.
func (w *world) invoke(creator msp.Identity, ccName, fn string, args ...string) ([]byte, error) {
	byteArgs := make([][]byte, len(args))
	for i, a := range args {
		byteArgs[i] = []byte(a)
	}
	txID := ccName + "-" + fn + "-" + time.Now().Format("150405.000000000")
	sim := chaincode.NewSimulator(chaincode.TxContext{
		TxID: txID, ChannelID: "ch", Creator: creator, Timestamp: time.Now(),
	}, ccName, w.db, w.history).WithRegistry(w.reg)
	cc, ok := w.reg.Get(ccName)
	if !ok {
		w.t.Fatalf("unknown chaincode %s", ccName)
	}
	resp, err := cc.Invoke(sim, fn, byteArgs)
	if err != nil {
		return nil, err
	}
	rw := sim.RWSet()
	batch := statedb.NewUpdateBatch()
	batch.AddRWSetWrites(rw)
	w.height++
	updates := []statedb.TxUpdate{{Batch: batch, Version: statedb.Version{BlockNum: w.height}}}
	w.db.ApplyBlockAt(updates, w.height, statedb.HistoryWrites(updates)...)
	w.blocks[w.height] = worldTx{id: txID, ts: time.Now(), writes: rw.Writes}
	return resp, nil
}

func (w *world) admin() msp.Identity {
	id, err := msp.NewSigner("gov", "root", msp.RoleAdmin)
	if err != nil {
		w.t.Fatal(err)
	}
	// Bootstrap enrollment (first admin).
	if _, err := w.invoke(id.Identity, AdminCC, "enrollAdmin", id.Identity.ID()); err != nil {
		w.t.Fatalf("bootstrap admin: %v", err)
	}
	return id.Identity
}

func (w *world) user(admin msp.Identity, org, name string, trusted bool) msp.Identity {
	s, err := msp.NewSigner(org, name, msp.RoleUntrustedSource)
	if err != nil {
		w.t.Fatal(err)
	}
	role := "untrusted-source"
	if trusted {
		role = "trusted-source"
	}
	rec, _ := json.Marshal(UserRecord{UserID: s.Identity.ID(), Role: role, PubKey: s.Identity.PubKey})
	if _, err := w.invoke(admin, UsersCC, "registerUser", string(rec)); err != nil {
		w.t.Fatalf("register %s: %v", name, err)
	}
	return s.Identity
}

func sampleMeta(t testing.TB, seed int64) (detect.MetadataRecord, string) {
	t.Helper()
	corpus := dataset.Generate(dataset.Config{Seed: seed, NumVideos: 1, FramesPerVideo: 1, NumDroneFlights: 1, FramesPerFlight: 1, MeanFrameKB: 2})
	frame := &corpus.Static[0].Frames[0]
	det := detect.NewDetector(seed)
	meta, _ := det.ExtractMetadata(frame)
	b, _ := json.Marshal(meta)
	return meta, string(b)
}

func TestAdminBootstrapAndDuplicate(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	if _, err := w.invoke(admin, AdminCC, "enrollAdmin", admin.ID()); err == nil {
		t.Fatal("duplicate admin enrolled")
	}
	out, err := w.invoke(admin, AdminCC, "adminExists", admin.ID())
	if err != nil || string(out) != "true" {
		t.Fatalf("adminExists = %q, %v", out, err)
	}
	out, err = w.invoke(admin, AdminCC, "adminExists", "ghost")
	if err != nil || string(out) != "false" {
		t.Fatalf("ghost adminExists = %q, %v", out, err)
	}
}

func TestSecondAdminRequiresExistingAdmin(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	outsider, _ := msp.NewSigner("x", "outsider", msp.RoleMember)
	if _, err := w.invoke(outsider.Identity, AdminCC, "enrollAdmin", "x/outsider"); err == nil {
		t.Fatal("non-admin enrolled a second admin")
	}
	if _, err := w.invoke(admin, AdminCC, "enrollAdmin", "gov/second"); err != nil {
		t.Fatalf("admin could not enroll second admin: %v", err)
	}
	out, _ := w.invoke(admin, AdminCC, "listAdmins")
	var admins []AdminRecord
	if err := json.Unmarshal(out, &admins); err != nil {
		t.Fatal(err)
	}
	if len(admins) != 2 {
		t.Fatalf("listAdmins = %d", len(admins))
	}
}

func TestUserRegistrationFlow(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	user := w.user(admin, "crowd", "bob", false)

	out, err := w.invoke(admin, UsersCC, "getUser", user.ID())
	if err != nil {
		t.Fatal(err)
	}
	var rec UserRecord
	if err := json.Unmarshal(out, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.UserID != user.ID() || rec.Trusted || !rec.Active {
		t.Fatalf("record = %+v", rec)
	}
	// Duplicate rejected.
	raw, _ := json.Marshal(UserRecord{UserID: user.ID(), Role: "untrusted-source", PubKey: user.PubKey})
	if _, err := w.invoke(admin, UsersCC, "registerUser", string(raw)); err == nil {
		t.Fatal("duplicate user registered")
	}
}

func TestUserRegistrationValidation(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cases := []UserRecord{
		{UserID: "", Role: "untrusted-source", PubKey: []byte{1}},
		{UserID: "a/b", Role: "superuser", PubKey: []byte{1}},
		{UserID: "a/b", Role: "untrusted-source"},
	}
	for i, rec := range cases {
		raw, _ := json.Marshal(rec)
		if _, err := w.invoke(admin, UsersCC, "registerUser", string(raw)); err == nil {
			t.Errorf("case %d accepted: %+v", i, rec)
		}
	}
}

func TestDeactivateUser(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	user := w.user(admin, "crowd", "carol", true)
	if _, err := w.invoke(admin, UsersCC, "deactivateUser", user.ID()); err != nil {
		t.Fatal(err)
	}
	out, _ := w.invoke(admin, UsersCC, "getUser", user.ID())
	var rec UserRecord
	_ = json.Unmarshal(out, &rec)
	if rec.Active {
		t.Fatal("user still active")
	}
	// Deactivated users fail validation.
	_, metaJSON := sampleMeta(t, 21)
	var meta detect.MetadataRecord
	_ = json.Unmarshal([]byte(metaJSON), &meta)
	if _, err := w.invoke(user, ValidationCC, "checkTransaction", metaJSON, meta.DataHash); err == nil {
		t.Fatal("deactivated user validated")
	}
	if _, err := w.invoke(admin, UsersCC, "reactivateUser", user.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.invoke(user, ValidationCC, "checkTransaction", metaJSON, meta.DataHash); err != nil {
		t.Fatalf("reactivated user rejected: %v", err)
	}
}

func TestValidationSchemaChecks(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	user := w.user(admin, "city", "cam", true)

	meta, metaJSON := sampleMeta(t, 31)
	// Well-formed passes.
	if _, err := w.invoke(user, ValidationCC, "checkTransaction", metaJSON, meta.DataHash); err != nil {
		t.Fatalf("valid metadata rejected: %v", err)
	}

	corrupt := func(mutate func(*detect.MetadataRecord)) string {
		var m detect.MetadataRecord
		if err := json.Unmarshal([]byte(metaJSON), &m); err != nil {
			t.Fatal(err)
		}
		mutate(&m)
		b, _ := json.Marshal(m)
		return string(b)
	}
	cases := []struct {
		name string
		json string
		hash string
	}{
		{"not json", "{", meta.DataHash},
		{"missing frame id", corrupt(func(m *detect.MetadataRecord) { m.FrameID = "" }), meta.DataHash},
		{"bad platform", corrupt(func(m *detect.MetadataRecord) { m.Platform = "satellite" }), meta.DataHash},
		{"no detections", corrupt(func(m *detect.MetadataRecord) { m.Detections = nil }), meta.DataHash},
		{"confidence > 1", corrupt(func(m *detect.MetadataRecord) { m.Detections[0].Confidence = 1.5 }), meta.DataHash},
		{"bad bbox", corrupt(func(m *detect.MetadataRecord) { m.Detections[0].BoundingBox.X2 = -1 }), meta.DataHash},
		{"bad latitude", corrupt(func(m *detect.MetadataRecord) { m.Location.Latitude = 123 }), meta.DataHash},
		{"short hash", corrupt(func(m *detect.MetadataRecord) { m.DataHash = "abcd" }), meta.DataHash},
		{"non-hex hash", corrupt(func(m *detect.MetadataRecord) { m.DataHash = strings.Repeat("z", 64) }), meta.DataHash},
		{"hash mismatch", metaJSON, strings.Repeat("0", 64)},
		{"zero size", corrupt(func(m *detect.MetadataRecord) { m.SizeBytes = 0 }), meta.DataHash},
	}
	for _, c := range cases {
		if _, err := w.invoke(user, ValidationCC, "checkTransaction", c.json, c.hash); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestAddDataAndRetrieval(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cam := w.user(admin, "city", "cam9", true)
	meta, metaJSON := sampleMeta(t, 41)

	out, err := w.invoke(cam, DataCC, "addData", "bafycid123", metaJSON)
	if err != nil {
		t.Fatalf("addData: %v", err)
	}
	if string(out) != "bafycid123" {
		t.Fatalf("addData returned %q", out)
	}
	// Find the record by source index.
	recsRaw, err := w.invoke(cam, DataCC, "queryBySource", cam.ID())
	if err != nil {
		t.Fatal(err)
	}
	var recs []DataRecord
	if err := json.Unmarshal(recsRaw, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("source query = %d records", len(recs))
	}
	rec := recs[0]
	if rec.CID != "bafycid123" || rec.Source != cam.ID() || rec.DataHash != meta.DataHash || rec.Seq != 1 {
		t.Fatalf("record = %+v", rec)
	}
	// Point lookup by tx id.
	got, err := w.invoke(cam, DataCC, "getData", rec.TxID)
	if err != nil {
		t.Fatal(err)
	}
	var again DataRecord
	_ = json.Unmarshal(got, &again)
	if again.TxID != rec.TxID {
		t.Fatal("getData mismatch")
	}
	// Label and camera indexes resolve the same record.
	byLabel, err := w.invoke(cam, DataCC, "queryByLabel", meta.PrimaryLabel())
	if err != nil {
		t.Fatal(err)
	}
	var labelRecs []DataRecord
	_ = json.Unmarshal(byLabel, &labelRecs)
	if len(labelRecs) != 1 {
		t.Fatalf("label query = %d", len(labelRecs))
	}
	byCam, err := w.invoke(cam, DataCC, "queryByCamera", meta.CameraID)
	if err != nil {
		t.Fatal(err)
	}
	var camRecs []DataRecord
	_ = json.Unmarshal(byCam, &camRecs)
	if len(camRecs) != 1 {
		t.Fatalf("camera query = %d", len(camRecs))
	}
	// Unknown tx id errors with the paper's message shape.
	if _, err := w.invoke(cam, DataCC, "getData", "nope"); err == nil || !strings.Contains(err.Error(), "No metadata found") {
		t.Fatalf("getData(nope) = %v", err)
	}
}

func TestAddDataRejectsUnregistered(t *testing.T) {
	w := newWorld(t)
	w.admin()
	rogue, _ := msp.NewSigner("x", "rogue", msp.RoleUntrustedSource)
	_, metaJSON := sampleMeta(t, 51)
	if _, err := w.invoke(rogue.Identity, DataCC, "addData", "cid", metaJSON); err == nil {
		t.Fatal("unregistered source stored data")
	}
}

func TestProvenanceChainLinks(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cam := w.user(admin, "city", "chain-cam", true)
	var lastTx string
	for i := 0; i < 3; i++ {
		_, metaJSON := sampleMeta(t, int64(60+i))
		if _, err := w.invoke(cam, DataCC, "addData", "cid", metaJSON); err != nil {
			t.Fatal(err)
		}
	}
	recsRaw, _ := w.invoke(cam, DataCC, "queryBySource", cam.ID())
	var recs []DataRecord
	_ = json.Unmarshal(recsRaw, &recs)
	if len(recs) != 3 {
		t.Fatalf("stored %d", len(recs))
	}
	for _, r := range recs {
		if r.Seq == 3 {
			lastTx = r.TxID
		}
	}
	chainRaw, err := w.invoke(cam, DataCC, "getProvenance", lastTx)
	if err != nil {
		t.Fatal(err)
	}
	var chain []DataRecord
	if err := json.Unmarshal(chainRaw, &chain); err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 {
		t.Fatalf("chain length %d", len(chain))
	}
	if chain[0].Seq != 3 || chain[2].Seq != 1 || chain[2].PrevTxID != "" {
		t.Fatalf("chain = %+v", chain)
	}
}

func TestTrustObserveAndGate(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	crowd := w.user(admin, "crowd", "noisy", false)

	// Defaults present without init.
	out, err := w.invoke(admin, TrustCC, "getTrust", crowd.ID())
	if err != nil {
		t.Fatal(err)
	}
	st, err := trust.UnmarshalState(out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Score != trust.DefaultParams().InitialScore {
		t.Fatalf("initial score %f", st.Score)
	}
	// Drive the score down.
	for i := 0; i < 15; i++ {
		if _, err := w.invoke(admin, TrustCC, "observe", crowd.ID(), "0", "0.0"); err != nil {
			t.Fatal(err)
		}
	}
	out, _ = w.invoke(admin, TrustCC, "isTrusted", crowd.ID())
	if string(out) != "false" {
		t.Fatal("dishonest source still trusted")
	}
	// The validation contract enforces the gate for untrusted users.
	meta, metaJSON := sampleMeta(t, 71)
	if _, err := w.invoke(crowd, ValidationCC, "checkTransaction", metaJSON, meta.DataHash); err == nil {
		t.Fatal("gated source validated")
	}
	// Scores listing includes the source.
	out, _ = w.invoke(admin, TrustCC, "listScores")
	var scores []trust.State
	_ = json.Unmarshal(out, &scores)
	if len(scores) != 1 || scores[0].SourceID != crowd.ID() {
		t.Fatalf("scores = %+v", scores)
	}
}

func TestTrustInitParams(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	params := trust.Params{InitialScore: 0.9, HistoryWeight: 0.5, CrossWeight: 0.1, MinTrusted: 0.2, FlagThreshold: 0.05}
	raw, _ := json.Marshal(params)
	if _, err := w.invoke(admin, TrustCC, "initParams", string(raw)); err != nil {
		t.Fatal(err)
	}
	out, _ := w.invoke(admin, TrustCC, "getTrust", "someone/new")
	st, _ := trust.UnmarshalState(out)
	if st.Score != 0.9 {
		t.Fatalf("custom initial score not applied: %f", st.Score)
	}
}

func TestCrossValidationFeedsFromTrustedRefs(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cam := w.user(admin, "city", "ref-cam", true)
	crowd := w.user(admin, "crowd", "alice", false)

	// A trusted camera submits an observation.
	meta, metaJSON := sampleMeta(t, 81)
	if _, err := w.invoke(cam, DataCC, "addData", "cid-cam", metaJSON); err != nil {
		t.Fatal(err)
	}
	// The crowd source reports the same scene: high cross validation.
	var crowdMeta detect.MetadataRecord
	_ = json.Unmarshal([]byte(metaJSON), &crowdMeta)
	crowdMeta.CameraID = "mobile-1"
	crowdMeta.FrameID = "mobile-1/frame-00001"
	b, _ := json.Marshal(crowdMeta)
	if _, err := w.invoke(crowd, DataCC, "addData", "cid-crowd", string(b)); err != nil {
		t.Fatal(err)
	}
	out, _ := w.invoke(admin, TrustCC, "getTrust", crowd.ID())
	st, _ := trust.UnmarshalState(out)
	if st.Submissions != 1 || st.Accepted != 1 {
		t.Fatalf("trust state %+v", st)
	}
	// Cross EWMA must have moved toward 1 (agreeing with the trusted ref),
	// i.e. above the no-corroboration baseline.
	if st.Cross <= 0.5 {
		t.Fatalf("cross validation did not credit agreement: %f", st.Cross)
	}
	_ = meta
}

func TestQuerySelectorOverRecords(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cam := w.user(admin, "city", "sel-cam", true)
	for i := 0; i < 3; i++ {
		_, metaJSON := sampleMeta(t, int64(90+i))
		if _, err := w.invoke(cam, DataCC, "addData", "cid", metaJSON); err != nil {
			t.Fatal(err)
		}
	}
	sel, _ := json.Marshal(map[string]any{"source": cam.ID()})
	out, err := w.invoke(cam, DataCC, "querySelector", string(sel))
	if err != nil {
		t.Fatal(err)
	}
	var recs []DataRecord
	if err := json.Unmarshal(out, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("selector matched %d", len(recs))
	}
	// count agrees.
	out, _ = w.invoke(cam, DataCC, "count")
	if string(out) != "3" {
		t.Fatalf("count = %s", out)
	}
}

func TestGetHistoryThroughContract(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cam := w.user(admin, "city", "hist-cam", true)
	_, metaJSON := sampleMeta(t, 99)
	if _, err := w.invoke(cam, DataCC, "addData", "cid", metaJSON); err != nil {
		t.Fatal(err)
	}
	recsRaw, _ := w.invoke(cam, DataCC, "queryBySource", cam.ID())
	var recs []DataRecord
	_ = json.Unmarshal(recsRaw, &recs)
	out, err := w.invoke(cam, DataCC, "getHistory", recs[0].TxID)
	if err != nil {
		t.Fatal(err)
	}
	var hist []statedb.HistEntry
	if err := json.Unmarshal(out, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 {
		t.Fatalf("history = %d entries", len(hist))
	}
}

func TestUnknownFunctions(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	for _, cc := range []string{AdminCC, UsersCC, TrustCC, DataCC, ValidationCC} {
		if _, err := w.invoke(admin, cc, "noSuchFunction"); err == nil {
			t.Errorf("%s accepted unknown function", cc)
		}
	}
}

func TestQueryPagePagination(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cam := w.user(admin, "city", "page-cam", true)
	want := 5
	for i := 0; i < want; i++ {
		_, metaJSON := sampleMeta(t, int64(60+i))
		if _, err := w.invoke(cam, DataCC, "addData", fmt.Sprintf("bafypage%d", i), metaJSON); err != nil {
			t.Fatalf("addData %d: %v", i, err)
		}
	}
	// Page by source, two records at a time, following tokens.
	var got []string
	token := ""
	for {
		out, err := w.invoke(cam, DataCC, "queryPage", IndexSource, cam.ID(), "2", token)
		if err != nil {
			t.Fatal(err)
		}
		var page RecordPage
		if err := json.Unmarshal(out, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Records) > 2 {
			t.Fatalf("page carries %d records", len(page.Records))
		}
		for _, raw := range page.Records {
			var rec DataRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Source != cam.ID() {
				t.Fatalf("foreign record %+v in source page", rec)
			}
			got = append(got, rec.TxID)
		}
		if page.Next == "" {
			break
		}
		token = page.Next
	}
	if len(got) != want {
		t.Fatalf("paged %d records, want %d", len(got), want)
	}
	seen := map[string]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatalf("record %s repeated across pages", id)
		}
		seen[id] = true
	}
	// The submitted index pages every record in time order with an empty
	// value prefix.
	out, err := w.invoke(cam, DataCC, "queryPage", IndexSubmitted, "", "100", "")
	if err != nil {
		t.Fatal(err)
	}
	var all RecordPage
	if err := json.Unmarshal(out, &all); err != nil {
		t.Fatal(err)
	}
	if len(all.Records) != want || all.Next != "" {
		t.Fatalf("submitted page = %d records, next %q", len(all.Records), all.Next)
	}
	var prev DataRecord
	for i, raw := range all.Records {
		var rec DataRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if i > 0 && rec.Submitted.Before(prev.Submitted) {
			t.Fatal("submitted page out of time order")
		}
		prev = rec
	}
	// Bad arguments error.
	if _, err := w.invoke(cam, DataCC, "queryPage", "bogus-index", "", "10", ""); err == nil {
		t.Fatal("unknown index accepted")
	}
	if _, err := w.invoke(cam, DataCC, "queryPage", IndexSource, "", "-3", ""); err == nil {
		t.Fatal("negative limit accepted")
	}
}

func TestAddDataDenormalisesLabel(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cam := w.user(admin, "city", "label-cam", true)
	meta, metaJSON := sampleMeta(t, 77)
	if _, err := w.invoke(cam, DataCC, "addData", "bafylabel", metaJSON); err != nil {
		t.Fatal(err)
	}
	out, err := w.invoke(cam, DataCC, "queryPage", IndexLabel, meta.PrimaryLabel(), "10", "")
	if err != nil {
		t.Fatal(err)
	}
	var page RecordPage
	if err := json.Unmarshal(out, &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Records) != 1 {
		t.Fatalf("label page = %d records", len(page.Records))
	}
	var rec DataRecord
	if err := json.Unmarshal(page.Records[0], &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Label != meta.PrimaryLabel() {
		t.Fatalf("record label %q, want %q", rec.Label, meta.PrimaryLabel())
	}
}

// observation returns a schema-valid metadata record whose one detection
// carries label, captured at the given place and time.
func observation(t *testing.T, label string, lat float64, at time.Time) string {
	t.Helper()
	meta, _ := sampleMeta(t, 41)
	meta.Detections = meta.Detections[:1]
	meta.Detections[0].Label = label
	meta.Location.Latitude = lat
	meta.CapturedAt = at
	b, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTrustedRefRingWrapsAround stores 40 trusted observations, each a
// degree, an hour and a label apart from the others. The ring keeps the
// newest 32: a crowd observation of the first scene finds nothing that
// corroborates it (cross-validation 0), one of the 40th matches exactly
// (cross-validation 1). The trust EWMA moves from 0.5 by a fifth of the
// difference.
func TestTrustedRefRingWrapsAround(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cam := w.user(admin, "city", "ring-cam", true)
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	scene := func(i int) string {
		return observation(t, fmt.Sprintf("ref-%02d", i), float64(i), base.Add(time.Duration(i)*time.Hour))
	}
	for i := 1; i <= 40; i++ {
		if _, err := w.invoke(cam, DataCC, "addData", "cid", scene(i)); err != nil {
			t.Fatalf("trusted store %d: %v", i, err)
		}
	}
	for _, c := range []struct {
		name  string
		scene int
		cross float64
	}{
		{"evicted-1st", 1, 0.4},
		{"kept-40th", 40, 0.6},
	} {
		t.Run(c.name, func(t *testing.T) {
			crowd := w.user(admin, "crowd", c.name, false)
			if _, err := w.invoke(crowd, DataCC, "addData", "cid", scene(c.scene)); err != nil {
				t.Fatal(err)
			}
			out, err := w.invoke(admin, TrustCC, "getTrust", crowd.ID())
			if err != nil {
				t.Fatal(err)
			}
			st, err := trust.UnmarshalState(out)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(st.Cross-c.cross) > 1e-9 {
				t.Fatalf("cross = %f after observing scene %d, want %f", st.Cross, c.scene, c.cross)
			}
		})
	}
}

// TestRingSlotsAreNotRecords requires every entry of every data index,
// and every selector match on a source, to be a record. A ring slot
// carries label and source fields too; only its array encoding keeps it
// out of the indexes and the selector queries.
func TestRingSlotsAreNotRecords(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cam := w.user(admin, "city", "slot-cam", true)
	const stored = 3
	for i := 0; i < stored; i++ {
		_, metaJSON := sampleMeta(t, int64(110+i))
		if _, err := w.invoke(cam, DataCC, "addData", "cid", metaJSON); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range DataIndexes() {
		page, err := w.db.IterIndex(spec.Name, "", 0, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(page.Entries) != stored {
			t.Errorf("index %s holds %d entries for %d records", spec.Name, len(page.Entries), stored)
		}
		for _, e := range page.Entries {
			if !strings.HasPrefix(e.Key, recKeyPrefix) {
				t.Errorf("index %s names %q, not a record", spec.Name, e.Key)
			}
		}
	}
	kvs, err := w.db.ExecuteQuery(DataCC, statedb.Selector{"source": cam.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != stored {
		t.Errorf("selector matched %d entries for %d records", len(kvs), stored)
	}
	for _, kv := range kvs {
		if !strings.HasPrefix(kv.Key, recKeyPrefix) {
			t.Errorf("selector matched %q, not a record", kv.Key)
		}
	}
}

// TestQueryByLabelMatchesExactly stores a "car" and a "cargo" record: the
// label index matches by prefix, the query by whole value.
func TestQueryByLabelMatchesExactly(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cam := w.user(admin, "city", "exact-cam", true)
	at := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, label := range []string{"car", "cargo"} {
		if _, err := w.invoke(cam, DataCC, "addData", "cid-"+label, observation(t, label, 10, at)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := w.invoke(cam, DataCC, "queryByLabel", "car")
	if err != nil {
		t.Fatal(err)
	}
	var recs []DataRecord
	if err := json.Unmarshal(out, &recs); err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, r := range recs {
		labels = append(labels, r.Label)
	}
	if len(labels) != 1 || labels[0] != "car" {
		t.Fatalf("queryByLabel(car) returned labels %q", labels)
	}
}

// TestAddDataRefusesRetiredRingLayout puts the single-key ring older builds
// wrote into the world state: every store is refused, naming the layout,
// rather than read or migrated.
func TestAddDataRefusesRetiredRingLayout(t *testing.T) {
	w := newWorld(t)
	admin := w.admin()
	cam := w.user(admin, "city", "old-cam", true)
	crowd := w.user(admin, "crowd", "old-crowd", false)
	batch := statedb.NewUpdateBatch()
	batch.Put(DataCC, retiredRefsKey, []byte(`[]`))
	w.height++
	w.db.ApplyBlockAt([]statedb.TxUpdate{{Batch: batch, Version: statedb.Version{BlockNum: w.height}}}, w.height)
	_, metaJSON := sampleMeta(t, 121)
	for _, source := range []msp.Identity{cam, crowd} {
		_, err := w.invoke(source, DataCC, "addData", "cid", metaJSON)
		if err == nil || !strings.Contains(err.Error(), "retired single-key trusted-reference ring layout") {
			t.Fatalf("addData by %s over the retired ring = %v", source.ID(), err)
		}
	}
}
