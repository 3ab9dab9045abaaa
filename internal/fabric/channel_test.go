package fabric

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSingleChannelKeepsVerbatimName(t *testing.T) {
	net := newTestNetwork(t, Config{NumPeers: 4})
	if got := len(net.Channels()); got != 1 {
		t.Fatalf("%d channels, want 1", got)
	}
	if got := net.ChannelAt(0).Name(); got != "traffic-channel" {
		t.Fatalf("channel name = %q, want traffic-channel", got)
	}
	named := newTestNetwork(t, Config{NumPeers: 4, ChannelID: "city-channel", NumChannels: 1})
	if got := named.Channels()[0].Name(); got != "city-channel" {
		t.Fatalf("channel name = %q, want city-channel (verbatim)", got)
	}
}

// TestMoreThanOneChannelRefused: NumChannels survives as a field, but a
// deployment runs one channel, so every constructor refuses any value but
// 0 or 1 before it opens a socket or a file.
func TestMoreThanOneChannelRefused(t *testing.T) {
	for _, n := range []int{2, 4, -1} {
		cfg := Config{NumChannels: n, IdentitySeed: "one-channel", DataDir: t.TempDir()}
		errs := map[string]error{}
		_, errs["NewNetwork"] = NewNetwork(cfg)
		_, errs["NewNode"] = NewNode(NodeConfig{Listen: "127.0.0.1:0", Net: cfg})
		_, errs["Dial"] = Dial(RemoteConfig{Net: cfg})
		for name, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "one channel") {
				t.Fatalf("%s with NumChannels %d: err = %v, want a one-channel refusal", name, n, err)
			}
		}
		if entries, _ := os.ReadDir(cfg.DataDir); len(entries) != 0 {
			t.Fatalf("a refused NumChannels %d wrote %d entries into the data directory", n, len(entries))
		}
	}
}

// treeListing is every file under dir with its contents, as one string.
func treeListing(t *testing.T, dir string) string {
	t.Helper()
	var out strings.Builder
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(&out, "%s:%x ", path[len(dir):], data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// plantChannelDir writes what an older multi-channel build left under
// dir: a peer directory inside <ChannelID>-<n>.
func plantChannelDir(t *testing.T, dir, channel string) string {
	t.Helper()
	old := filepath.Join(dir, channel)
	if err := os.MkdirAll(filepath.Join(old, "peer0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "peer0", "blocks.wal"), []byte("older build"), 0o644); err != nil {
		t.Fatal(err)
	}
	return old
}

// TestNetworkRefusesMultiChannelLayout: a durable network keeps peer i
// under DataDir/peer<i>. A directory that also holds the multi-channel
// layout an older build wrote (<ChannelID>-<n>/peer<i>) fails to open
// with an error naming the layout, and is left as it was.
func TestNetworkRefusesMultiChannelLayout(t *testing.T) {
	dir := t.TempDir()
	net, err := NewNetwork(Config{NumPeers: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got := strings.Join(names, " "); got != "identity.seed peer0 peer1 peer2 peer3" {
		t.Fatalf("network directory holds %s, want identity.seed and peer0..peer3", got)
	}

	old := plantChannelDir(t, dir, "traffic-channel-1")
	before := treeListing(t, dir)
	if _, err := NewNetwork(Config{NumPeers: 4, DataDir: dir}); err == nil || !strings.Contains(err.Error(), "multi-channel layout") {
		t.Fatalf("network opened a directory holding traffic-channel-1/peer0: %v", err)
	}
	if after := treeListing(t, dir); after != before {
		t.Fatal("refused directory was modified")
	}
	if err := os.RemoveAll(old); err != nil {
		t.Fatal(err)
	}
	re, err := NewNetwork(Config{NumPeers: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}

// TestNodeRefusesMultiChannelLayout: a peer process's data directory in
// the multi-channel layout is refused the same way, before the node opens
// its listener or its peer.
func TestNodeRefusesMultiChannelLayout(t *testing.T) {
	dir := t.TempDir()
	cfg := NodeConfig{Listen: "127.0.0.1:0", Net: Config{NumPeers: 4, IdentitySeed: "node-layout", DataDir: dir}}
	old := plantChannelDir(t, dir, "traffic-channel-0")
	before := treeListing(t, dir)
	if _, err := NewNode(cfg); err == nil || !strings.Contains(err.Error(), "multi-channel layout") {
		t.Fatalf("node opened a directory holding traffic-channel-0/peer0: %v", err)
	}
	if after := treeListing(t, dir); after != before {
		t.Fatal("refused directory was modified")
	}
	if err := os.RemoveAll(old); err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "peer0", "blocks.wal")); err != nil {
		t.Fatalf("node did not keep its peer under peer0: %v", err)
	}
}
