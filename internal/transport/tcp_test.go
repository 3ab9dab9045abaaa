package transport

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// collect returns a handler appending payload copies to a shared slice.
func collect(mu *sync.Mutex, out *[][]byte) Handler {
	return func(from string, payload []byte) error {
		mu.Lock()
		*out = append(*out, bytes.Clone(payload))
		mu.Unlock()
		return nil
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tcpPair builds two connected endpoints a<->b on loopback.
func tcpPair(t *testing.T, cluster string) (*TCP, *TCP) {
	t.Helper()
	a, err := NewTCP(TCPConfig{ID: "a", Cluster: cluster, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("NewTCP a: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewTCP(TCPConfig{ID: "b", Cluster: cluster, Listen: "127.0.0.1:0", Peers: map[string]string{"a": a.Addr()}})
	if err != nil {
		t.Fatalf("NewTCP b: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	a.AddPeer("b", b.Addr())
	return a, b
}

func TestTCPOrderedDelivery(t *testing.T) {
	a, b := tcpPair(t, "test")
	var mu sync.Mutex
	var got [][]byte
	b.Handle("s", collect(&mu, &got))
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send("b", "s", []byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, "all frames", func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == n })
	mu.Lock()
	defer mu.Unlock()
	for i, p := range got {
		if len(p) != 1 || p[0] != byte(i) {
			t.Fatalf("frame %d out of order: % x", i, p)
		}
	}
	if a.Counters().FramesSent.Load() != n || b.Counters().FramesRecv.Load() != n {
		t.Fatalf("counters: sent=%d recv=%d", a.Counters().FramesSent.Load(), b.Counters().FramesRecv.Load())
	}
}

func TestTCPBidirectionalAndClientOnly(t *testing.T) {
	srv, err := NewTCP(TCPConfig{ID: "srv", Cluster: "c", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Client endpoint: no listener; replies must ride its outbound conn.
	cli, err := NewTCP(TCPConfig{ID: "cli", Cluster: "c", Peers: map[string]string{"srv": srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var mu sync.Mutex
	var atCli [][]byte
	cli.Handle("pong", collect(&mu, &atCli))
	srv.Handle("ping", func(from string, payload []byte) error {
		return srv.Send(from, "pong", append([]byte("re:"), payload...))
	})

	if err := cli.Send("srv", "ping", []byte("hi")); err != nil {
		t.Fatalf("client send: %v", err)
	}
	waitFor(t, "reply on outbound conn", func() bool { mu.Lock(); defer mu.Unlock(); return len(atCli) == 1 })
	mu.Lock()
	if string(atCli[0]) != "re:hi" {
		t.Fatalf("reply: %q", atCli[0])
	}
	mu.Unlock()
}

func TestTCPClusterMismatchRejected(t *testing.T) {
	srv, err := NewTCP(TCPConfig{ID: "srv", Cluster: "right", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bad, err := NewTCP(TCPConfig{
		ID: "bad", Cluster: "wrong", Peers: map[string]string{"srv": srv.Addr()},
		DialTimeout: 300 * time.Millisecond, BackoffBase: 10 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()

	var mu sync.Mutex
	var got [][]byte
	srv.Handle("s", collect(&mu, &got))
	if err := bad.Send("srv", "s", []byte("x")); err != nil {
		t.Fatalf("send enqueues: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 0 {
		t.Fatal("frame crossed a cluster-mismatched handshake")
	}
}

// TestTCPBackpressureTyped fills a tiny send queue against a peer that
// never answers and asserts the typed error, not a block or a panic.
func TestTCPBackpressureTyped(t *testing.T) {
	// Dead address: nothing listens, so the pump can never drain.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()

	a, err := NewTCP(TCPConfig{
		ID: "a", Cluster: "c", Peers: map[string]string{"slow": addr},
		QueueLen: 4, DialTimeout: 50 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var sawBackpressure bool
	for i := 0; i < 64; i++ {
		if err := a.Send("slow", "s", []byte("x")); err != nil {
			if !errors.Is(err, ErrBackpressure) {
				t.Fatalf("want ErrBackpressure, got %v", err)
			}
			sawBackpressure = true
			break
		}
	}
	if !sawBackpressure {
		t.Fatal("queue of 4 never filled after 64 sends to a dead peer")
	}
	if a.Counters().Drops.Load() == 0 {
		t.Fatal("backpressure drop not counted")
	}
}

// TestTCPReconnectAfterRestart kills one endpoint mid-conversation,
// restarts it on the same address, and asserts traffic resumes over a
// fresh connection — the peer-restart story the daemon depends on.
func TestTCPReconnectAfterRestart(t *testing.T) {
	a, err := NewTCP(TCPConfig{
		ID: "a", Cluster: "c", Listen: "127.0.0.1:0",
		DialTimeout: 200 * time.Millisecond, BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	mkB := func(listen string) (*TCP, *sync.Mutex, *[][]byte) {
		b, err := NewTCP(TCPConfig{ID: "b", Cluster: "c", Listen: listen, Peers: map[string]string{"a": a.Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var got [][]byte
		b.Handle("s", collect(&mu, &got))
		return b, &mu, &got
	}

	b1, mu1, got1 := mkB("127.0.0.1:0")
	addr := b1.Addr()
	a.AddPeer("b", addr)
	if err := a.Send("b", "s", []byte("before")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "pre-restart delivery", func() bool { mu1.Lock(); defer mu1.Unlock(); return len(*got1) == 1 })

	b1.Close()
	// A send while b is down sits in the queue or is retried by the pump —
	// unless the kernel had already accepted its bytes on the dying
	// connection, in which case it is the one frame a restart can lose.
	if err := a.Send("b", "s", []byte("during")); err != nil {
		t.Fatal(err)
	}

	b2, mu2, got2 := mkB(addr) // same address: a's pump redials it
	defer b2.Close()
	if err := a.Send("b", "s", []byte("after")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restart delivery", func() bool {
		mu2.Lock()
		defer mu2.Unlock()
		return len(*got2) >= 1 && string((*got2)[len(*got2)-1]) == "after"
	})
	if a.Counters().Reconnects.Load() < 2 {
		t.Fatalf("reconnect counter %d, want >= 2", a.Counters().Reconnects.Load())
	}
}

// TestTCPGarbageTearsConnDown feeds raw garbage and a CRC-flipped frame to
// a listener and asserts the connection is dropped without dispatch, while
// a well-formed session still works afterwards.
func TestTCPGarbageTearsConnDown(t *testing.T) {
	srv, err := NewTCP(TCPConfig{ID: "srv", Cluster: "c", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	var got [][]byte
	srv.Handle("s", collect(&mu, &got))

	// Raw socket, no handshake: garbage bytes.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	buf := make([]byte, 1)
	raw.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server kept a garbage connection open")
	}
	raw.Close()

	// Handshake then a corrupted frame: conn must die at the bad frame.
	raw2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	helloFrame := mustFrame(t, helloStream, []byte(`{"cluster":"c","from":"evil"}`))
	raw2.Write(helloFrame)
	if _, _, err := ReadFrame(raw2, 0); err != nil { // server's hello reply
		t.Fatalf("handshake reply: %v", err)
	}
	good := mustFrame(t, "s", []byte("ok"))
	raw2.Write(good)
	bad := bytes.Clone(good)
	bad[len(bad)-1] ^= 0xFF
	raw2.Write(bad)
	raw2.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := raw2.Read(buf); err == nil {
		t.Fatal("server kept reading after a corrupt frame")
	}
	raw2.Close()

	waitFor(t, "the one good frame", func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 1 })
	mu.Lock()
	if string(got[0]) != "ok" {
		t.Fatalf("dispatched %q", got[0])
	}
	mu.Unlock()

	// A proper peer still gets through.
	ok, err := NewTCP(TCPConfig{ID: "ok", Cluster: "c", Peers: map[string]string{"srv": srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	if err := ok.Send("srv", "s", []byte("still alive")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-garbage delivery", func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 2 })
}

func TestTCPSendToUnknownAndClosed(t *testing.T) {
	a, err := NewTCP(TCPConfig{ID: "a", Cluster: "c", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("ghost", "s", nil); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("unknown peer: %v", err)
	}
	a.Close()
	if err := a.Send("ghost", "s", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestNewTCPRejectsBadTunings: every endpoint goes through NewTCP, so it
// refuses the tunings that mean nothing — a negative queue bound or
// duration, a backoff base above its cap — and zero still selects the
// defaults.
func TestNewTCPRejectsBadTunings(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  TCPConfig
		want string
	}{
		{"negative queue", TCPConfig{QueueLen: -1}, "QueueLen must be >= 0"},
		{"negative timeout", TCPConfig{DialTimeout: -time.Second}, "DialTimeout must be >= 0"},
		{"negative backoff", TCPConfig{BackoffMax: -time.Second}, "BackoffMax must be >= 0"},
		{"backoff inversion", TCPConfig{BackoffBase: time.Second, BackoffMax: 10 * time.Millisecond}, "exceeds its cap"},
	} {
		tc.cfg.ID, tc.cfg.Listen = "a", "127.0.0.1:0"
		if tr, err := NewTCP(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			if tr != nil {
				tr.Close()
			}
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	tr, err := NewTCP(TCPConfig{ID: "a", Listen: "127.0.0.1:0", BackoffBase: time.Second})
	if err != nil {
		t.Fatalf("a backoff base above the default cap: %v", err)
	}
	tr.Close()
}
