package main

import (
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"socialchain/internal/contracts"
	"socialchain/internal/fabric"
	"socialchain/internal/ordering"
	"socialchain/internal/storage"
)

// daemonConfig carries the -role flags: one socialchaind process hosting
// one peer node of a networked deployment (the channel's peer, validator
// and ordering service).
type daemonConfig struct {
	role         string // "peer"
	index        int    // peer index
	listen       string // TCP listen address
	join         string // comma-separated id=addr book of the other processes
	peers        int
	identitySeed string
	dataDir      string
	durability   storage.Durability
	batchTimeout time.Duration
	maxMessages  int
	admin        string // admin/debug HTTP listen address ("" = off)
}

// parseJoin parses "-join peer0=127.0.0.1:7001,peer1=127.0.0.1:7002"
// into a transport address book. Processes absent from the book are
// adopted when they dial in, so a partial book (or none) is legal.
func parseJoin(s string) (map[string]string, error) {
	book := make(map[string]string)
	if s == "" {
		return book, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -join entry %q (want id=host:port)", part)
		}
		book[id] = addr
	}
	return book, nil
}

// netConfig builds the deployment-wide fabric config every process of one
// deployment must agree on (same flags on every process).
func (d daemonConfig) netConfig() fabric.Config {
	return fabric.Config{
		NumPeers:        d.peers,
		IdentitySeed:    d.identitySeed,
		Cutter:          ordering.CutterConfig{MaxMessages: d.maxMessages, BatchTimeout: d.batchTimeout},
		DataDir:         d.dataDir,
		StateDurability: d.durability,
	}
}

// runDaemon runs one process of a networked deployment until SIGINT or
// SIGTERM, then shuts it down cleanly (flushing durable state).
func runDaemon(d daemonConfig) error {
	book, err := parseJoin(d.join)
	if err != nil {
		return err
	}
	if d.role != "peer" {
		return fmt.Errorf("unknown -role %q (valid: peer)", d.role)
	}
	if d.identitySeed == "" {
		return fmt.Errorf("-role %s requires -identity-seed (same value on every process)", d.role)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)

	node, err := fabric.NewNode(fabric.NodeConfig{
		Index:  d.index,
		Listen: d.listen,
		Peers:  book,
		Net:    d.netConfig(),
	})
	if err != nil {
		return err
	}
	for _, cc := range contracts.All() {
		if err := node.Deploy(cc); err != nil {
			node.Close()
			return err
		}
	}
	if d.admin != "" {
		if err := node.ServeAdmin(d.admin); err != nil {
			node.Close()
			return err
		}
		fmt.Printf("%s admin surface on http://%s\n", node.ID(), node.AdminAddr())
	}
	node.Start()
	fmt.Printf("%s listening on %s (%d peers, data-dir %q)\n",
		node.ID(), node.Addr(), d.peers, d.dataDir)
	<-stop
	fmt.Printf("%s shutting down\n", node.ID())
	return node.Close()
}
