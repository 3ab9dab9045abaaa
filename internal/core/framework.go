// Package core assembles the paper's framework: a permissioned blockchain
// (fabric) holding metadata, CIDs, trust scores and provenance, an IPFS
// cluster holding raw payloads, and the client pipelines of Figure 1 —
// store (validate, upload to IPFS, log metadata on-chain) and retrieve
// (metadata from the chain, payload from IPFS, integrity verification).
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/detect"
	"socialchain/internal/fabric"
	"socialchain/internal/ingest"
	"socialchain/internal/ipfs"
	"socialchain/internal/ledger"
	"socialchain/internal/msp"
	"socialchain/internal/query"
	"socialchain/internal/sim"
	"socialchain/internal/storage"
	"socialchain/internal/transport"
	"socialchain/internal/trust"
)

// Config assembles a framework instance.
type Config struct {
	// Fabric configures the blockchain network (peer count, latency,
	// byzantine behaviours, batching).
	Fabric fabric.Config
	// IPFSNodes sizes the off-chain cluster (default 2, as in §IV).
	IPFSNodes int
	// IPFSLatency models the off-chain network (nil = zero).
	IPFSLatency sim.LatencyModel
	// TrustParams tune the trust engine (zero value = defaults).
	TrustParams trust.Params
	// EnableAnomalyDetection turns on the client-side anomaly detectors
	// (duplicate payloads, bursts, confidence outliers, teleports) — the
	// paper's future-work trust extension. Submissions whose anomaly
	// penalty reaches AnomalyRejectThreshold are rejected and reported.
	EnableAnomalyDetection bool
	// AnomalyRejectThreshold defaults to 0.6.
	AnomalyRejectThreshold float64
	// AdminID names the bootstrap administrator (default "gov/admin").
	AdminOrg  string
	AdminName string
	// StorageEngine selects the key-value engine behind every peer's world
	// state ("single" or "persist"; default single, in memory). It is
	// copied into Fabric.StateEngine by Resolve; setting both knobs to
	// different engines is a configuration conflict.
	StorageEngine storage.Engine
	// StorageDurability selects the persist engine's fsync policy ("none",
	// "batch" or "always"; default none — page-cache writes, process-crash
	// safe). It is copied into Fabric.StateDurability by Resolve; setting
	// both knobs to different policies is a configuration conflict. Only
	// meaningful with a DataDir.
	StorageDurability storage.Durability
	// DataDir, when non-empty, makes the whole deployment durable: peers
	// persist under DataDir/fabric (world state + block logs) and the IPFS
	// cluster's blockstores and pin sets under DataDir/ipfs. Building a
	// framework over a directory with previous data recovers it — peers
	// replay their block logs, lagging peers sync from the freshest — and
	// the bootstrap (admin enrollment, trust parameters) is skipped when
	// the recovered chain already carries it. A killed and restarted
	// deployment therefore resumes with its canonical state intact.
	DataDir string
	// Transport selects how consensus traffic moves between the framework's
	// validators: "inproc" (default — deterministic in-process delivery) or
	// "tcp" (framed localhost sockets). Copied into Fabric.Transport by
	// Resolve; setting both knobs to different kinds is a configuration
	// conflict, and an unknown kind is rejected here rather than at network
	// build time. The TCP tunings (listen addresses, send queue, dial
	// timeout and backoff) are set on Fabric only.
	Transport string
}

func (c *Config) fill() {
	if c.IPFSNodes <= 0 {
		c.IPFSNodes = 2
	}
	if c.AdminOrg == "" {
		c.AdminOrg = "gov"
	}
	if c.AdminName == "" {
		c.AdminName = "admin"
	}
	if c.TrustParams == (trust.Params{}) {
		c.TrustParams = trust.DefaultParams()
	}
	if c.AnomalyRejectThreshold <= 0 {
		c.AnomalyRejectThreshold = 0.6
	}
}

// Resolve merges the framework-level deployment knobs (StorageEngine,
// StorageDurability, DataDir, Transport) into the fabric configuration
// and returns the result. It replaces the old silent copy-if-unset chain:
// setting a knob at both levels to different values is now an error
// instead of one level quietly winning.
func (c *Config) Resolve() (fabric.Config, error) {
	fc := c.Fabric
	if c.StorageEngine != "" {
		if fc.StateEngine != "" && fc.StateEngine != c.StorageEngine {
			return fabric.Config{}, fmt.Errorf(
				"core: conflicting storage engines: Config.StorageEngine=%q but Config.Fabric.StateEngine=%q",
				c.StorageEngine, fc.StateEngine)
		}
		fc.StateEngine = c.StorageEngine
	}
	if c.StorageDurability != "" {
		if fc.StateDurability != "" && fc.StateDurability != c.StorageDurability {
			return fabric.Config{}, fmt.Errorf(
				"core: conflicting durability: Config.StorageDurability=%q but Config.Fabric.StateDurability=%q",
				c.StorageDurability, fc.StateDurability)
		}
		fc.StateDurability = c.StorageDurability
	}
	if c.DataDir != "" {
		derived := filepath.Join(c.DataDir, "fabric")
		if fc.DataDir != "" && fc.DataDir != derived {
			return fabric.Config{}, fmt.Errorf(
				"core: conflicting data directories: Config.DataDir=%q implies fabric dir %q but Config.Fabric.DataDir=%q",
				c.DataDir, derived, fc.DataDir)
		}
		fc.DataDir = derived
	}
	if err := c.resolveTransport(&fc); err != nil {
		return fabric.Config{}, err
	}
	if fc.StateIndexes == nil {
		fc.StateIndexes = contracts.DataIndexes()
	}
	return fc, nil
}

// resolveTransport merges the transport kind. The kind string is parsed
// here so a typo'd Transport fails Resolve with the full list of valid
// kinds instead of surfacing later from fabric.NewNetwork.
func (c *Config) resolveTransport(fc *fabric.Config) error {
	if c.Transport == "" {
		return nil
	}
	kind, err := transport.ParseKind(c.Transport)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if fc.Transport != "" {
		fk, err := transport.ParseKind(fc.Transport)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if fk != kind {
			return fmt.Errorf(
				"core: conflicting transports: Config.Transport=%q but Config.Fabric.Transport=%q",
				c.Transport, fc.Transport)
		}
	}
	fc.Transport = string(kind)
	return nil
}

// Framework is a running instance of the paper's system.
type Framework struct {
	cfg     Config
	Net     *fabric.Network
	Cluster *ipfs.Cluster
	Admin   *msp.Signer

	adminGW  *fabric.Gateway
	closeErr error

	anomalyMu sync.Mutex
	anomaly   map[string]*trust.AnomalyDetector
}

// New builds and starts a framework: blockchain network with the five
// chaincodes deployed, IPFS cluster, enrolled bootstrap admin and
// initialised trust parameters.
func New(cfg Config) (*Framework, error) {
	cfg.fill()
	fabricCfg, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	net, err := fabric.NewNetwork(fabricCfg)
	if err != nil {
		return nil, fmt.Errorf("core: fabric: %w", err)
	}
	for _, cc := range contracts.All() {
		if err := net.Deploy(cc); err != nil {
			return nil, fmt.Errorf("core: deploy %s: %w", cc.Name(), err)
		}
	}
	ipfsDir := ""
	if cfg.DataDir != "" {
		ipfsDir = filepath.Join(cfg.DataDir, "ipfs")
	}
	cluster, err := ipfs.NewCluster(ipfs.ClusterConfig{
		Nodes:   cfg.IPFSNodes,
		Latency: cfg.IPFSLatency,
		DataDir: ipfsDir,
	})
	if err != nil {
		net.Close()
		return nil, fmt.Errorf("core: ipfs: %w", err)
	}
	admin, err := msp.NewSigner(cfg.AdminOrg, cfg.AdminName, msp.RoleAdmin)
	if err != nil {
		net.Close()
		cluster.Close()
		return nil, fmt.Errorf("core: admin signer: %w", err)
	}
	fw := &Framework{
		cfg:     cfg,
		Net:     net,
		Cluster: cluster,
		Admin:   admin,
		anomaly: make(map[string]*trust.AnomalyDetector),
	}
	net.Start()
	fw.adminGW = net.ChannelAt(0).Gateway(admin)
	if err := fw.bootstrap(); err != nil {
		fw.Close()
		return nil, err
	}
	return fw, nil
}

// bootstrap enrolls the admin and installs the trust parameters. On a
// recovered durable deployment the enrollment is skipped when the chain
// already carries it (enrollAdmin rejects duplicates), but initParams
// always runs — it is an idempotent overwrite, and gating it on the
// *first* bootstrap step would silently leave default trust parameters if
// a crash landed between the two transactions.
func (f *Framework) bootstrap() error {
	params, err := json.Marshal(f.cfg.TrustParams)
	if err != nil {
		return err
	}
	gw, adminID := f.adminGW, []byte(f.Admin.Identity.ID())
	enrolled := false
	if f.cfg.DataDir != "" {
		if raw, err := gw.Evaluate(contracts.AdminCC, "adminExists", adminID); err == nil && string(raw) == "true" {
			enrolled = true
		}
	}
	if !enrolled {
		if err := submitOK(gw, contracts.AdminCC, "enrollAdmin", adminID); err != nil {
			return fmt.Errorf("core: enroll admin: %w", err)
		}
	}
	if err := submitOK(gw, contracts.TrustCC, "initParams", params); err != nil {
		return fmt.Errorf("core: init trust params: %w", err)
	}
	return nil
}

// submitOK submits a transaction and folds a committed-but-invalid result
// into the error.
func submitOK(gw *fabric.Gateway, cc, fn string, args ...[]byte) error {
	res, err := gw.Submit(cc, fn, args...)
	if err != nil {
		return err
	}
	return res.Err()
}

// Close shuts the framework down, flushing and closing every durable
// store (peer state, block logs, IPFS blockstores). A durable deployment
// must be closed before its DataDir is reopened; close errors are
// retrievable via CloseErr.
func (f *Framework) Close() {
	err := f.Net.Close()
	if cerr := f.Cluster.Close(); err == nil {
		err = cerr
	}
	f.closeErr = err
}

// CloseErr reports the first error the last Close encountered (nil before
// Close and after a clean one).
func (f *Framework) CloseErr() error { return f.closeErr }

// AdminGateway returns the bootstrap admin's gateway.
func (f *Framework) AdminGateway() *fabric.Gateway { return f.adminGW }

// RegisterSource registers a data source on-chain. Trusted sources (traffic
// cameras, drones) bypass the trust gate; untrusted sources (mobile users,
// social media) are scored. Re-registering an already-registered source ID
// is a no-op: a restarted durable deployment re-runs its setup and the
// chain's registration (keyed by source ID) must win.
func (f *Framework) RegisterSource(id msp.Identity, trusted bool) error {
	gw := f.adminGW
	if f.cfg.DataDir != "" {
		if raw, err := gw.Evaluate(contracts.UsersCC, "userExists", []byte(id.ID())); err == nil && string(raw) == "true" {
			return nil
		}
	}
	role := "untrusted-source"
	if trusted {
		role = "trusted-source"
	}
	rec := contracts.UserRecord{
		UserID: id.ID(),
		Role:   role,
		PubKey: id.PubKey,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	res, err := gw.Submit(contracts.UsersCC, "registerUser", b)
	if err != nil {
		return fmt.Errorf("core: register %s: %w", id.ID(), err)
	}
	return res.Err()
}

// EnrollAdmin enrolls an additional administrator.
func (f *Framework) EnrollAdmin(adminID string) error {
	return submitOK(f.adminGW, contracts.AdminCC, "enrollAdmin", []byte(adminID))
}

// TrustScore reads a source's current on-chain trust state.
func (f *Framework) TrustScore(sourceID string) (trust.State, error) {
	raw, err := f.adminGW.Evaluate(contracts.TrustCC, "getTrust", []byte(sourceID))
	if err != nil {
		return trust.State{}, err
	}
	return trust.UnmarshalState(raw)
}

// QueryEngine returns a query engine bound to the admin gateway and the
// given IPFS node (0 <= node < cluster size).
func (f *Framework) QueryEngine(node int) *query.Engine {
	return query.NewEngine(f.adminGW, f.Cluster.Node(node))
}

// Client binds a source identity to the framework: it talks to the
// blockchain through its own gateway and to a designated IPFS node.
type Client struct {
	fw     *Framework
	signer *msp.Signer
	gw     *fabric.Gateway
	store  *ipfs.Node
	qe     *query.Engine
}

// Client creates a client for a registered source, attached to IPFS node i:
// it writes and reads through its own gateway.
func (f *Framework) Client(signer *msp.Signer, ipfsNode int) *Client {
	store := f.Cluster.Node(ipfsNode)
	gw := f.Net.ChannelAt(0).Gateway(signer)
	return &Client{fw: f, signer: signer, gw: gw, store: store, qe: query.NewEngine(gw, store)}
}

// Identity returns the client's identity.
func (c *Client) Identity() msp.Identity { return c.signer.Identity }

// Gateway exposes the client's blockchain gateway (the ingest pipeline
// and tests drive the transaction lifecycle through it directly).
func (c *Client) Gateway() *fabric.Gateway { return c.gw }

// IPFS exposes the client's off-chain storage node.
func (c *Client) IPFS() *ipfs.Node { return c.store }

// Pipeline builds an ingest pipeline bound to this client's gateway and
// IPFS node — the batched, pipelined counterpart of StoreData for bulk
// social workloads. The caller owns the pipeline lifecycle
// (Start/Submit/Drain, or Run).
func (c *Client) Pipeline(cfg ingest.Config) *ingest.Pipeline {
	return ingest.New(c.gw, c.store, cfg)
}

// StoreFrames ingests a slice of frames and their metadata through the
// pipelined write path, returning per-record results in input order.
func (c *Client) StoreFrames(frames []*detect.Frame, metas []detect.MetadataRecord, cfg ingest.Config) ([]ingest.Result, error) {
	if len(frames) != len(metas) {
		return nil, fmt.Errorf("core: %d frames but %d metadata records", len(frames), len(metas))
	}
	records := make([]ingest.Record, len(frames))
	for i, f := range frames {
		records[i] = ingest.Record{Signed: msp.NewSignedMessage(c.signer, f.Data), Meta: metas[i]}
	}
	return c.Pipeline(cfg).Run(records), nil
}

// StoreTiming splits the store pipeline's latency, the quantities Figure 5
// plots (IPFS alone vs. blockchain overhead).
type StoreTiming struct {
	Validate   time.Duration
	IPFS       time.Duration
	Blockchain time.Duration
}

// Total returns the end-to-end store latency.
func (t StoreTiming) Total() time.Duration { return t.Validate + t.IPFS + t.Blockchain }

// StoreReceipt reports a successful store.
type StoreReceipt struct {
	TxID     string
	CID      string
	BlockNum uint64
	Size     int
	Timing   StoreTiming
}

// ErrValidationFailed wraps client-side validation rejections.
var ErrValidationFailed = errors.New("core: validation failed")

// StoreData runs the paper's store pipeline (Figure 1, steps 1-7) for a
// payload and its extracted metadata:
//
//  1. The source's signature over the payload is verified;
//  2. the validation chaincode pre-checks source authentication and schema
//     (read-only, so a rejection costs no IPFS storage);
//  3. the payload is added to IPFS (chunked, hashed, provided);
//  4. the CID + metadata are committed on-chain through BFT consensus,
//     re-validating on every endorser and updating the trust score.
//
// A validation failure is reported to the trust chaincode so the source's
// historical reliability reflects it.
func (c *Client) StoreData(signed msp.SignedMessage, meta detect.MetadataRecord) (*StoreReceipt, error) {
	var timing StoreTiming

	if !signed.Verify() {
		return nil, fmt.Errorf("%w: bad payload signature", ErrValidationFailed)
	}
	if signed.Creator.ID() != c.signer.Identity.ID() {
		return nil, fmt.Errorf("%w: payload signed by %s, client is %s", ErrValidationFailed, signed.Creator.ID(), c.signer.Identity.ID())
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}

	// Client-side pre-validation via the read-only chaincode path. The
	// payload hash is recomputed here so a metadata record whose data_hash
	// does not match the actual payload is rejected before touching IPFS.
	sum := sha256.Sum256(signed.Payload)
	actualHash := hex.EncodeToString(sum[:])
	start := time.Now()
	if anomalies := c.fw.observeAnomalies(c.signer.Identity.ID(), meta, actualHash); len(anomalies) > 0 {
		if trust.PenaltyOf(anomalies) >= c.fw.cfg.AnomalyRejectThreshold {
			timing.Validate = time.Since(start)
			c.fw.reportViolation(c.signer.Identity.ID())
			trust.SortAnomalies(anomalies)
			return nil, fmt.Errorf("%w: anomaly detected: %s (%s)", ErrValidationFailed, anomalies[0].Kind, anomalies[0].Detail)
		}
	}
	_, verr := c.gw.Evaluate(contracts.ValidationCC, "checkTransaction", metaJSON, []byte(actualHash))
	timing.Validate = time.Since(start)
	if verr != nil {
		// Report the failed submission so the trust score drops; the
		// framework (admin) files the report, not the offender.
		c.fw.reportViolation(c.signer.Identity.ID())
		return nil, fmt.Errorf("%w: %v", ErrValidationFailed, verr)
	}

	// Off-chain storage.
	start = time.Now()
	root, err := c.store.Add(signed.Payload)
	timing.IPFS = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("core: ipfs add: %w", err)
	}

	// On-chain metadata + CID.
	start = time.Now()
	res, err := c.gw.Submit(contracts.DataCC, "addData", []byte(root.String()), metaJSON)
	timing.Blockchain = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("core: addData: %w", err)
	}
	if res.Err() != nil {
		return nil, res.Err()
	}
	return &StoreReceipt{
		TxID:     res.TxID,
		CID:      root.String(),
		BlockNum: res.BlockNum,
		Size:     len(signed.Payload),
		Timing:   timing,
	}, nil
}

// StoreFrame extracts nothing: the caller provides the frame and its
// already-extracted metadata record; this signs the payload and stores it.
func (c *Client) StoreFrame(frame *detect.Frame, meta detect.MetadataRecord) (*StoreReceipt, error) {
	signed := msp.NewSignedMessage(c.signer, frame.Data)
	return c.StoreData(signed, meta)
}

// RetrieveResult reports a verified retrieval.
type RetrieveResult struct {
	Record   contracts.DataRecord
	Payload  []byte
	Verified bool
	Timing   query.Timing
}

// RetrieveData runs the retrieve pipeline (Figure 1, steps A-D): metadata
// from the blockchain, payload from IPFS by CID, hash verification.
func (c *Client) RetrieveData(txID string) (*RetrieveResult, error) {
	res, err := c.qe.Data(txID)
	if err != nil {
		return nil, err
	}
	return &RetrieveResult{
		Record:   res.Records[0],
		Payload:  res.Payload,
		Verified: res.Verified,
		Timing:   res.Timing,
	}, nil
}

// Query exposes the client's query engine for conditional retrieval.
func (c *Client) Query() *query.Engine { return c.qe }

// reportViolation files a failed-validation observation against a source.
func (f *Framework) reportViolation(sourceID string) {
	// Best effort: a scoring hiccup must not mask the original error.
	_, _ = f.adminGW.Submit(contracts.TrustCC, "observe",
		[]byte(sourceID), []byte("0"), []byte(strconv.FormatFloat(0, 'f', 1, 64)))
}

// observeAnomalies runs the optional anomaly detectors over a submission.
// Returns nil when detection is disabled.
func (f *Framework) observeAnomalies(sourceID string, meta detect.MetadataRecord, payloadHash string) []trust.Anomaly {
	if !f.cfg.EnableAnomalyDetection {
		return nil
	}
	confidence := 0.0
	if len(meta.Detections) > 0 {
		confidence = meta.Detections[0].Confidence
	}
	sub := trust.Submission{
		At:         meta.CapturedAt,
		Label:      meta.PrimaryLabel(),
		Confidence: confidence,
		Latitude:   meta.Location.Latitude,
		Longitude:  meta.Location.Longitude,
		DataHash:   payloadHash,
		SizeBytes:  meta.SizeBytes,
	}
	f.anomalyMu.Lock()
	defer f.anomalyMu.Unlock()
	det, ok := f.anomaly[sourceID]
	if !ok {
		det = trust.NewAnomalyDetector(trust.AnomalyDetectorConfig{})
		f.anomaly[sourceID] = det
	}
	return det.Observe(sub)
}

// LedgerStats returns peer 0's chain statistics (the peers agree when the
// network is healthy).
func (f *Framework) LedgerStats() ledger.Stats {
	return f.Net.ChannelAt(0).Peer(0).Ledger().Stats()
}
