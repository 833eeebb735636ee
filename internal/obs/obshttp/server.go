// Package obshttp is the live introspection plane: an embeddable HTTP
// server exposing a running emulation's observability surfaces
// (internal/obs) while the run is still going — the -serve flag on
// quartzbench and quartzrun, and the backend cmd/quartztop polls.
//
// Endpoints:
//
//	GET /          human-readable index
//	GET /healthz   liveness probe ("ok")
//	GET /metrics   metrics-registry snapshot (sorted JSON, same schema as
//	               -metrics-out, including histogram p50/p95/p99);
//	               ?format=prometheus switches to the Prometheus text
//	               exposition (cumulative _bucket/_sum/_count histograms)
//	GET /ledger    incremental epoch-ledger cursor:
//	               ?since=N  first sequence number wanted (default 0)
//	               ?limit=M  max records per page (default 1000, cap 10000)
//	GET /runs      experiment-runner suite/job status (404 without a board)
//	GET /vtprof    virtual-time profile, pprof protobuf (gzipped; 404 when
//	               no profiler is attached)
//
// With Options.DebugPprof the host-side net/http/pprof handlers are mounted
// under /debug/pprof/ — host CPU/heap profiles of the emulator itself, as
// opposed to /vtprof's simulated-time attribution.
//
// Everything is read-only and safe to poll while the run mutates state;
// see doc/live-monitoring.md for schemas and examples.
package obshttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"github.com/quartz-emu/quartz/internal/obs"
	"github.com/quartz-emu/quartz/internal/runner"
)

// Options configures the handler's data sources.
type Options struct {
	// Recorder feeds /metrics and /ledger. Required.
	Recorder *obs.Recorder
	// Status feeds /runs; nil makes /runs respond 404 (quartzrun has no
	// experiment runner).
	Status *runner.StatusBoard
	// VTProf feeds /vtprof: it returns the current virtual-time profile as
	// gzipped pprof protobuf bytes (vtprof.Suite.PprofBytes, or a single
	// profiler's). Nil makes /vtprof respond 404.
	VTProf func() ([]byte, error)
	// DebugPprof mounts net/http/pprof under /debug/pprof/ (host-side
	// profiles of the emulator process). Off by default: the introspection
	// plane stays read-only cheap unless explicitly asked for.
	DebugPprof bool
}

// LedgerPage is the /ledger response schema.
type LedgerPage struct {
	// Total is the number of epochs ever closed.
	Total uint64 `json:"total"`
	// Next is the ?since cursor that continues after this page.
	Next uint64 `json:"next"`
	// Truncated reports that records between ?since and the first returned
	// record have been evicted from the in-memory tail (they are still in
	// the ledger sink, if one is attached).
	Truncated bool `json:"truncated"`
	// More reports that another page is immediately available (the page was
	// cut by ?limit, not by the ledger's end).
	More    bool              `json:"more"`
	Records []obs.EpochRecord `json:"records"`
}

// Handler builds the introspection mux over o's sources.
func Handler(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", index)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		switch format := r.URL.Query().Get("format"); format {
		case "", "json":
			w.Header().Set("Content-Type", "application/json")
			if err := o.Recorder.WriteMetricsJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "prometheus":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := o.Recorder.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (want json or prometheus)", format),
				http.StatusBadRequest)
		}
	})
	mux.HandleFunc("GET /vtprof", func(w http.ResponseWriter, r *http.Request) {
		if o.VTProf == nil {
			http.Error(w, "no virtual-time profiler attached (run with -vtprof)", http.StatusNotFound)
			return
		}
		b, err := o.VTProf()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="vtprof.pb.gz"`)
		w.Write(b) //nolint:errcheck // client disconnects are not actionable
	})
	if o.DebugPprof {
		// The default net/http/pprof handlers register on DefaultServeMux;
		// mount them here explicitly so nothing leaks onto the default mux.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("GET /ledger", func(w http.ResponseWriter, r *http.Request) {
		ledger(o.Recorder, w, r)
	})
	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, r *http.Request) {
		if o.Status == nil {
			http.Error(w, "no experiment runner attached", http.StatusNotFound)
			return
		}
		writeJSON(w, o.Status.Snapshot())
	})
	return mux
}

// index is the human-facing endpoint listing.
func index(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `quartz live introspection
  /metrics          metrics-registry snapshot (JSON; ?format=prometheus for text exposition)
  /ledger?since=N   incremental epoch-ledger cursor (JSON)
  /runs             experiment-runner suite status (JSON)
  /vtprof           virtual-time profile (pprof protobuf, gzipped)
  /healthz          liveness probe
`)
}

// writeJSON marshals v as the response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// ledger serves one page of the incremental epoch-ledger cursor.
func ledger(rec *obs.Recorder, w http.ResponseWriter, r *http.Request) {
	since, err := queryUint(r, "since", 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	limit, err := queryUint(r, "limit", 1000)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if limit == 0 || limit > 10000 {
		limit = 10000
	}
	// One record past the page tells whether more follow.
	recs, total := rec.LedgerSince(since, int(limit)+1)
	page := LedgerPage{Total: total, Next: since}
	if uint64(len(recs)) > limit {
		recs = recs[:limit]
		page.More = true
	}
	page.Records = recs
	if len(recs) > 0 {
		page.Next = recs[len(recs)-1].Seq + 1
		page.Truncated = recs[0].Seq > since
	} else if page.Records == nil {
		page.Records = []obs.EpochRecord{} // render [], not null
	}
	writeJSON(w, page)
}

// queryUint parses an optional unsigned query parameter.
func queryUint(r *http.Request, name string, def uint64) (uint64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: must be a non-negative integer", name, s)
	}
	return v, nil
}

// Server is a started introspection server bound to a listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (e.g. ":8077", "127.0.0.1:0") and serves the
// introspection handler in the background until Close.
func Start(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("introspection server: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(o),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed after Close
	return &Server{ln: ln, srv: srv}, nil
}

// URL is the server's base URL with a dialable host (wildcard listen
// addresses render as 127.0.0.1).
func (s *Server) URL() string {
	host, port, err := net.SplitHostPort(s.ln.Addr().String())
	if err != nil {
		return "http://" + s.ln.Addr().String()
	}
	switch host {
	case "", "::", "0.0.0.0":
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// Close immediately shuts the server down, cutting open connections.
func (s *Server) Close() error { return s.srv.Close() }
