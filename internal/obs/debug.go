package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"sort"
)

// ServeDebug serves stdlib pprof plus a runtime-metrics dump
// (/debug/runtime) on addr (e.g. "localhost:6060", ":0" for ephemeral) in
// the background until the process exits, and returns the bound address; it
// never blocks. Long simulations can then be profiled live:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
func ServeDebug(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", serveRuntimeMetrics)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		_ = http.Serve(ln, mux) //nolint:errcheck // best-effort debug endpoint
	}()
	return ln.Addr().String(), nil
}

// serveRuntimeMetrics dumps every runtime/metrics sample as "name value"
// lines, sorted by name.
func serveRuntimeMetrics(w http.ResponseWriter, _ *http.Request) {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			fmt.Fprintf(w, "%s %d\n", s.Name, s.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Fprintf(w, "%s %g\n", s.Name, s.Value.Float64())
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			var n uint64
			for _, c := range h.Counts {
				n += c
			}
			fmt.Fprintf(w, "%s histogram n=%d\n", s.Name, n)
		}
	}
}
