package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"socialchain/internal/codec"
)

// RPCStream is the stream all request/response traffic multiplexes over.
const RPCStream = "@rpc"

// ErrRPCTimeout reports a call that got no response in time (lost request
// or response, slow or dead peer).
var ErrRPCTimeout = errors.New("transport: rpc timeout")

// CodedError carries a machine-readable error code across the wire, so
// typed sentinel errors (ordering backlog, commit timeout, ...) survive
// serialization: the server wraps them in a code, the client maps the code
// back to the sentinel.
type CodedError struct {
	Code string
	Msg  string
}

// Error implements error.
func (e *CodedError) Error() string { return e.Msg }

// ErrCode extracts the wire code of err ("" if none).
func ErrCode(err error) string {
	var ce *CodedError
	if errors.As(err, &ce) {
		return ce.Code
	}
	return ""
}

// rpcWire is one multiplexed request or response frame body. Its encoding
// (internal/codec) is: call ID, response flag, method, body, error text,
// error code — the body rides as raw bytes, whatever the method puts in it.
type rpcWire struct {
	ID     uint64
	Method string
	Body   []byte
	Resp   bool
	Err    string
	Code   string
}

func (w *rpcWire) encode() []byte {
	b := make([]byte, 0, 32+len(w.Method)+len(w.Body)+len(w.Err)+len(w.Code))
	b = codec.AppendUvarint(b, w.ID)
	b = codec.AppendBool(b, w.Resp)
	b = codec.AppendString(b, w.Method)
	b = codec.AppendBytes(b, w.Body)
	b = codec.AppendString(b, w.Err)
	return codec.AppendString(b, w.Code)
}

func decodeRPC(b []byte) (*rpcWire, error) {
	r := codec.NewReader(b)
	w := &rpcWire{ID: r.Uvarint(), Resp: r.Bool(), Method: r.String(), Body: r.Bytes(), Err: r.String(), Code: r.String()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: bad rpc frame: %v", ErrFrameCorrupt, err)
	}
	return w, nil
}

// RPCHandler serves one method; the returned bytes become the response
// body. Returning a *CodedError preserves its code across the wire.
type RPCHandler func(from string, req []byte) ([]byte, error)

// RPC layers request/response calls over a Transport's ordered streams.
// Requests dispatch to per-method handlers in their own goroutines (they
// may block); responses ride back over the transport to the waiting
// caller. There are no retries at this layer — a lost message surfaces as
// ErrRPCTimeout for the caller to handle.
type RPC struct {
	t Transport

	mu       sync.Mutex
	next     uint64
	pending  map[uint64]chan *rpcWire
	handlers map[string]RPCHandler
}

// NewRPC attaches an RPC layer to t, claiming the RPCStream stream.
func NewRPC(t Transport) *RPC {
	r := &RPC{
		t:        t,
		pending:  make(map[uint64]chan *rpcWire),
		handlers: make(map[string]RPCHandler),
	}
	t.Handle(RPCStream, r.onFrame)
	return r
}

// Handle registers the handler for one method.
func (r *RPC) Handle(method string, fn RPCHandler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handlers[method] = fn
}

// Call sends a request to peer `to` and waits up to timeout for its
// response. Transport-level send failures (backpressure, unknown peer,
// closed) return immediately; a server-side error returns as a *CodedError
// when the server supplied a code, else a plain error.
func (r *RPC) Call(to, method string, req []byte, timeout time.Duration) ([]byte, error) {
	r.mu.Lock()
	r.next++
	id := r.next
	ch := make(chan *rpcWire, 1)
	r.pending[id] = ch
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.pending, id)
		r.mu.Unlock()
	}()

	if err := r.t.Send(to, RPCStream, (&rpcWire{ID: id, Method: method, Body: req}).encode()); err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	select {
	case w := <-ch:
		if w.Err != "" {
			if w.Code != "" {
				return nil, &CodedError{Code: w.Code, Msg: w.Err}
			}
			return nil, errors.New(w.Err)
		}
		return w.Body, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("%w: %s to %s after %s", ErrRPCTimeout, method, to, timeout)
	}
}

func (r *RPC) onFrame(from string, payload []byte) error {
	w, err := decodeRPC(payload)
	if err != nil {
		return err
	}
	if w.Resp {
		r.mu.Lock()
		ch := r.pending[w.ID]
		r.mu.Unlock()
		if ch != nil {
			select {
			case ch <- w:
			default:
			}
		}
		return nil
	}
	r.mu.Lock()
	fn := r.handlers[w.Method]
	r.mu.Unlock()
	go r.serve(from, w, fn)
	return nil
}

func (r *RPC) serve(from string, w *rpcWire, fn RPCHandler) {
	resp := rpcWire{ID: w.ID, Resp: true}
	if fn == nil {
		resp.Err = fmt.Sprintf("transport: no handler for rpc method %q", w.Method)
		resp.Code = "nomethod"
	} else if out, err := fn(from, w.Body); err != nil {
		resp.Err = err.Error()
		var ce *CodedError
		if errors.As(err, &ce) {
			resp.Code = ce.Code
		}
	} else {
		resp.Body = out
	}
	// Best effort: if the response cannot be queued the caller times out.
	_ = r.t.Send(from, RPCStream, resp.encode())
}
