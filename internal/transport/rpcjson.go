package transport

import (
	"encoding/json"
	"time"
)

// CallJSON marshals req as JSON, calls, and unmarshals the response into
// resp (which may be nil for empty responses). It is the convenience for
// small control-plane bodies — a channel name, a height, a want — that
// nothing hashes, signs or stores; bodies that carry chain data (blocks,
// transactions, batches) are encoded with internal/codec by their callers
// and go through Call.
func (r *RPC) CallJSON(to, method string, req, resp any, timeout time.Duration) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	out, err := r.Call(to, method, body, timeout)
	if err != nil {
		return err
	}
	if resp == nil || len(out) == 0 {
		return nil
	}
	return json.Unmarshal(out, resp)
}
