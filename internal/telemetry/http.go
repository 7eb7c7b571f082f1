package telemetry

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Mount registers the live exposition endpoints on mux:
//
//	/metrics    Prometheus text exposition of every registered metric
//	/healthz    liveness probe; JSON role/fence once SetHealth is wired
//	/decisions  the process flight ring merged with every session window
//	            by Seq, as JSONL, at most max(4096, ring size) a read (?n=K for
//	            the last K, ?session=ID for one daemon session's window,
//	            ?since=SEQ to tail incrementally; gzip when accepted)
//	/traces     the span-buffer window as JSONL (?trace=HEXID to select
//	            one distributed trace)
//	/debug/pprof/...  the standard Go profiling endpoints
//
// Mount is the one place these handlers are wired: cmd/jouleguard -serve
// and cmd/jouleguardd both call it (the daemon on a mux that also
// carries the /v1/sessions API), so the exposition surface cannot drift
// between the binaries. The handlers are safe to serve while experiments
// run; a scrape folds each session's tally, and a /decisions read copies
// each session's window, under that session's lock, one session at a
// time.
func (t *Telemetry) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", t.serveMetrics)
	mux.HandleFunc("/healthz", t.serveHealthz)
	mux.HandleFunc("/decisions", t.serveDecisions)
	mux.HandleFunc("/traces", t.serveTraces)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns a mux carrying exactly the Mount endpoints.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	t.Mount(mux)
	return mux
}

func (t *Telemetry) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = t.Registry.WritePrometheus(w)
}

func (t *Telemetry) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	meter, haveMeter := t.Meter()
	var meterPtr *MeterInfo
	if haveMeter {
		meterPtr = &meter
	}
	qos, haveQoS := t.QoS()
	var qosPtr *QoSInfo
	if haveQoS {
		qosPtr = &qos
	}
	if info, ok := t.Health(); ok || haveMeter || haveQoS {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			HealthInfo
			UptimeS   float64    `json:"uptime_seconds"`
			Decisions uint64     `json:"decisions_recorded"`
			Meter     *MeterInfo `json:"meter,omitempty"`
			QoS       *QoSInfo   `json:"qos,omitempty"`
		}{info, time.Since(t.start).Seconds(), t.seq.Load(), meterPtr, qosPtr})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok\nuptime_seconds %.1f\ndecisions_recorded %d\n",
		time.Since(t.start).Seconds(), t.seq.Load())
}

func (t *Telemetry) serveDecisions(w http.ResponseWriter, r *http.Request) {
	last := 0
	if s := r.URL.Query().Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
			return
		}
		last = n
	}
	var since uint64
	if s := r.URL.Query().Get("since"); s != "" {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			http.Error(w, "since must be a non-negative integer sequence number", http.StatusBadRequest)
			return
		}
		since = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := compressed(w, r)
	defer out.close()
	_ = writeJSONL(out, t.Decisions(r.URL.Query().Get("session"), since, last))
}

func (t *Telemetry) serveTraces(w http.ResponseWriter, r *http.Request) {
	var trace uint64
	if s := r.URL.Query().Get("trace"); s != "" {
		id, ok := ParseID(s)
		if !ok {
			http.Error(w, "trace must be a hex id (up to 16 digits)", http.StatusBadRequest)
			return
		}
		trace = id
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := compressed(w, r)
	defer out.close()
	_ = t.Spans.WriteJSONL(out, trace)
}

// gzipSink pairs the negotiated response writer with its cleanup.
type gzipSink struct {
	http.ResponseWriter
	gz *gzip.Writer
}

func (s *gzipSink) Write(p []byte) (int, error) {
	if s.gz != nil {
		return s.gz.Write(p)
	}
	return s.ResponseWriter.Write(p)
}

func (s *gzipSink) close() {
	if s.gz != nil {
		_ = s.gz.Close()
	}
}

// compressed wraps w in a gzip writer when the client accepts it — long
// chaos runs tail /decisions and /traces repeatedly, and the JSONL is
// highly compressible.
func compressed(w http.ResponseWriter, r *http.Request) *gzipSink {
	for _, enc := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		e := strings.TrimSpace(enc)
		if e == "gzip" || strings.HasPrefix(e, "gzip;") {
			w.Header().Set("Content-Encoding", "gzip")
			return &gzipSink{ResponseWriter: w, gz: gzip.NewWriter(w)}
		}
	}
	return &gzipSink{ResponseWriter: w}
}
