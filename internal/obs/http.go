package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// MuxOptions selects optional surfaces on the introspection mux.
type MuxOptions struct {
	// PProf mounts net/http/pprof under /debug/pprof/ (CPU, heap,
	// goroutine profiles). Off by default: profiling endpoints on a
	// metrics port should be an explicit operator choice.
	PProf bool

	// Flight, when non-nil, is mounted at /debug/flight (the flight
	// recorder's live window; ?save=1 dumps it to disk).
	Flight http.Handler
}

// Handler serves the introspection surface for one Observer, plus the
// optional surfaces (pprof, flight recorder) opt enables:
//
//	/metrics     Prometheus text exposition
//	/healthz     liveness ("ok")
//	/debug/sched recent explained decisions + phase timings as JSON
func Handler(o *Observer, opt MuxOptions) http.Handler {
	mux := http.NewServeMux()
	if opt.PProf {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if opt.Flight != nil {
		mux.Handle("/debug/flight", opt.Flight)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		//gflint:ignore errdrop a client that hung up mid-response has no remedy
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if o == nil {
			http.Error(w, "observability disabled", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//gflint:ignore errdrop a client that hung up mid-response has no remedy
		o.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/sched", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		//gflint:ignore errdrop a client that hung up mid-response has no remedy
		enc.Encode(o.Snapshot())
	})
	return mux
}

// Serve starts the introspection server on addr (e.g. ":9090" or
// "127.0.0.1:0") in a background goroutine and returns the server
// and the bound address. Callers own shutdown via srv.Close.
func Serve(addr string, o *Observer, opt MuxOptions) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: %w", err)
	}
	srv := &http.Server{Handler: Handler(o, opt)}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
