package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	rtmetrics "runtime/metrics"
	"time"
)

// AdminServer is the per-process admin/debug HTTP surface: /metrics
// (Prometheus text exposition), /healthz (200 or 503 + JSON detail),
// /statusz (free-form JSON snapshot) and /debug/pprof. It is off by
// default and binds only when a daemon passes -admin.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeAdmin binds addr and serves the admin surface in a background
// goroutine. reg, health and statusz may each be nil — the corresponding
// endpoint degrades (empty exposition / always-healthy / empty object)
// rather than 404ing, so scrapers can be pointed at any role.
func ServeAdmin(addr string, reg *Registry, health *Health, statusz func() any) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	reg.GaugeFunc("go_heap_alloc_bytes", "Bytes of live heap objects (runtime.MemStats.HeapAlloc).", func() float64 {
		return float64(HeapAlloc())
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		st := health.Check()
		w.Header().Set("Content-Type", "application/json")
		if !st.Healthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		var body any = struct{}{}
		if statusz != nil {
			body = statusz()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
	// pprof on the same listener profiles a daemon under real traffic
	// (go tool pprof .../debug/pprof/...); offline runs use go test's
	// -cpuprofile/-memprofile.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	a := &AdminServer{ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return a, nil
}

// Addr returns the bound address (useful with ":0" in tests).
func (a *AdminServer) Addr() string {
	if a == nil {
		return ""
	}
	return a.ln.Addr().String()
}

// Close stops the listener and open connections.
func (a *AdminServer) Close() error {
	if a == nil {
		return nil
	}
	return a.srv.Close()
}

// HeapAlloc reads the process's live heap bytes — runtime.MemStats.HeapAlloc
// — without the stop-the-world ReadMemStats costs.
func HeapAlloc() uint64 {
	sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(sample)
	return sample[0].Value.Uint64()
}
