package core

import (
	"path/filepath"
	"strings"
	"testing"

	"socialchain/internal/fabric"
	"socialchain/internal/storage"
)

func TestResolveDerivesFabricKnobs(t *testing.T) {
	cfg := Config{
		StorageEngine: storage.EnginePersist,
		DataDir:       "/tmp/deploy",
	}
	fc, err := cfg.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if fc.StateEngine != storage.EnginePersist {
		t.Fatalf("StateEngine = %q, want persist", fc.StateEngine)
	}
	if want := filepath.Join("/tmp/deploy", "fabric"); fc.DataDir != want {
		t.Fatalf("DataDir = %q, want %q", fc.DataDir, want)
	}
	if fc.StateIndexes == nil {
		t.Fatal("StateIndexes not defaulted to the data indexes")
	}
}

func TestResolveKeepsExplicitFabricValues(t *testing.T) {
	// Matching values at both levels are not a conflict.
	cfg := Config{
		StorageEngine: storage.EnginePersist,
		DataDir:       "/tmp/d",
		Fabric: fabric.Config{
			StateEngine: storage.EnginePersist,
			DataDir:     filepath.Join("/tmp/d", "fabric"),
		},
	}
	if _, err := cfg.Resolve(); err != nil {
		t.Fatalf("matching overrides rejected: %v", err)
	}
	// Fabric-only settings pass through untouched.
	only := Config{Fabric: fabric.Config{StateEngine: storage.EngineSingle, NumPeers: 7}}
	fc, err := only.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if fc.StateEngine != storage.EngineSingle || fc.NumPeers != 7 {
		t.Fatalf("fabric-level settings mangled: %+v", fc)
	}
}

func TestResolveRejectsConflictingOverrides(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			name: "storage engine",
			cfg: Config{
				StorageEngine: storage.EngineSingle,
				Fabric:        fabric.Config{StateEngine: storage.EnginePersist},
			},
			want: "conflicting storage engines",
		},
		{
			name: "data dir",
			cfg: Config{
				DataDir: "/tmp/a",
				Fabric:  fabric.Config{DataDir: "/tmp/elsewhere"},
			},
			want: "conflicting data directories",
		},
		{
			name: "transport kind",
			cfg: Config{
				Transport: "tcp",
				Fabric:    fabric.Config{Transport: "inproc"},
			},
			want: "conflicting transports",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.cfg.Resolve()
			if err == nil {
				t.Fatalf("Resolve accepted conflicting %s overrides", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// core.New must surface the same conflict instead of building
			// a network over ambiguous knobs.
			if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New error = %v, want %q conflict", err, tc.want)
			}
		})
	}
}

func TestResolveTransportKnobs(t *testing.T) {
	fc, err := (&Config{Transport: "tcp"}).Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if fc.Transport != "tcp" {
		t.Fatalf("transport kind not propagated: %+v", fc)
	}

	// Matching values at both levels are not a conflict.
	both := Config{Transport: "tcp", Fabric: fabric.Config{Transport: "tcp"}}
	if _, err := both.Resolve(); err != nil {
		t.Fatalf("matching transport kinds rejected: %v", err)
	}
}

// TestResolveRejectsBadTransportTunings: an unknown transport kind, at
// either level, fails New. (The TCP tunings are the transport's own;
// transport.NewTCP's test checks them.)
func TestResolveRejectsBadTransportTunings(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown kind", Config{Transport: "carrier-pigeon"}, "unknown kind"},
		{"unknown fabric kind", Config{Transport: "tcp", Fabric: fabric.Config{Transport: "bogus"}}, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if fw, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				if fw != nil {
					fw.Close()
				}
				t.Fatalf("New error = %v, want %q", err, tc.want)
			}
		})
	}
}
