package transport

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRPCRoundTripInProc(t *testing.T) {
	net := NewInProcNet(nil, nil)
	a, b := net.Node("a"), net.Node("b")
	ra, rb := NewRPC(a), NewRPC(b)

	rb.Handle("echo", func(from string, req []byte) ([]byte, error) {
		return append([]byte(from+":"), req...), nil
	})
	out, err := ra.Call("b", "echo", []byte("ping"), time.Second)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(out) != "a:ping" {
		t.Fatalf("response: %q", out)
	}
}

func TestRPCCodedErrorSurvivesWire(t *testing.T) {
	net := NewInProcNet(nil, nil)
	ra, rb := NewRPC(net.Node("a")), NewRPC(net.Node("b"))
	rb.Handle("fail", func(string, []byte) ([]byte, error) {
		return nil, &CodedError{Code: "backlog", Msg: "ordering queue full"}
	})
	_, err := ra.Call("b", "fail", nil, time.Second)
	if err == nil || ErrCode(err) != "backlog" || err.Error() != "ordering queue full" {
		t.Fatalf("coded error lost: %v (code %q)", err, ErrCode(err))
	}
}

func TestRPCNoMethod(t *testing.T) {
	net := NewInProcNet(nil, nil)
	ra := NewRPC(net.Node("a"))
	NewRPC(net.Node("b"))
	_, err := ra.Call("b", "nope", nil, time.Second)
	if err == nil || ErrCode(err) != "nomethod" {
		t.Fatalf("want nomethod code, got %v", err)
	}
}

func TestRPCTimeoutTyped(t *testing.T) {
	net := NewInProcNet(nil, nil)
	ra, rb := NewRPC(net.Node("a")), NewRPC(net.Node("b"))
	rb.Handle("slow", func(string, []byte) ([]byte, error) {
		time.Sleep(200 * time.Millisecond)
		return nil, nil
	})
	_, err := ra.Call("b", "slow", nil, 20*time.Millisecond)
	if !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("want ErrRPCTimeout, got %v", err)
	}
}

func TestRPCConcurrentCallsOverTCP(t *testing.T) {
	srv, err := NewTCP(TCPConfig{ID: "srv", Cluster: "c", Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := NewTCP(TCPConfig{ID: "cli", Cluster: "c", Peers: map[string]string{"srv": srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	rs := NewRPC(srv)
	rc := NewRPC(cli)
	rs.Handle("double", func(_ string, req []byte) ([]byte, error) {
		var n int
		if err := json.Unmarshal(req, &n); err != nil {
			return nil, err
		}
		return json.Marshal(2 * n)
	})

	const calls = 64
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			var out int
			req, _ := json.Marshal(n)
			resp, err := rc.Call("srv", "double", req, 5*time.Second)
			if err == nil {
				err = json.Unmarshal(resp, &out)
			}
			if err != nil {
				errs <- err
				return
			}
			if out != 2*n {
				errs <- fmt.Errorf("call %d: got %d", n, out)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// rpcFixtures are a request, a response and a coded error response.
func rpcFixtures() []*rpcWire {
	return []*rpcWire{
		{ID: 300, Method: "blocks", Body: []byte(`{"channel":"ch","from":7}`)},
		{ID: 300, Resp: true, Body: []byte{0, 1, 2, 0xff}},
		{ID: 1 << 40, Resp: true, Err: "ordering: pending queue full", Code: "backlog"},
		{},
	}
}

func decodeRPCBytes(p []byte) ([]byte, error) {
	w, err := decodeRPC(p)
	if err != nil {
		return nil, err
	}
	return w.encode(), nil
}

// TestRPCWireEveryOffset pins the envelope layout and sweeps cuts and bit
// flips over it: a cut never decodes, a flip decodes only to an envelope
// that encodes back to the flipped bytes, and every failure is the
// connection-fatal ErrFrameCorrupt.
func TestRPCWireEveryOffset(t *testing.T) {
	const golden = "ac02" + "00" + "06626c6f636b73" + "197b226368616e6e656c223a226368222c2266726f6d223a377d" + "00" + "00"
	enc := rpcFixtures()[0].encode()
	if got := hex.EncodeToString(enc); got != golden {
		t.Fatalf("rpc envelope layout changed:\n got %s\nwant %s", got, golden)
	}
	for _, w := range rpcFixtures() {
		enc := w.encode()
		got, err := decodeRPC(enc)
		if err != nil || got.ID != w.ID || got.Method != w.Method || !bytes.Equal(got.Body, w.Body) || got.Resp != w.Resp || got.Err != w.Err || got.Code != w.Code {
			t.Fatalf("round trip of %+v = %+v, %v", w, got, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodeRPC(enc[:cut]); !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("envelope cut to %d of %d bytes: %v", cut, len(enc), err)
			}
		}
		for off := range enc {
			flipped := append([]byte(nil), enc...)
			flipped[off] ^= 0x80
			if out, err := decodeRPCBytes(flipped); err == nil && !bytes.Equal(out, flipped) {
				t.Fatalf("flip at %d decoded to a different envelope", off)
			}
		}
	}
}

func FuzzDecodeRPC(f *testing.F) {
	for _, w := range rpcFixtures() {
		enc := w.encode()
		f.Add(enc)
		for cut := 1; cut < len(enc); cut += 5 {
			f.Add(enc[:cut])
		}
		for off := 0; off < len(enc); off += 7 {
			flipped := append([]byte(nil), enc...)
			flipped[off] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if out, err := decodeRPCBytes(in); err == nil && !bytes.Equal(out, in) {
			t.Fatalf("decoded without error but re-encodes differently")
		}
	})
}
