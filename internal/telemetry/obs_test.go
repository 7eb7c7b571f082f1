package telemetry

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestHealthzRoleFence pins the provider-gated healthz upgrade: once a
// role provider is installed, /healthz answers JSON carrying role and
// fencing epoch (the probe a failover runbook keys on); without one the
// plain-text liveness body is unchanged.
func TestHealthzRoleFence(t *testing.T) {
	tel := New(8)
	tel.SetHealth(func() HealthInfo { return HealthInfo{Role: "primary", Fence: 7} })
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("healthz content type %q", ct)
	}
	var body struct {
		Role      string  `json:"role"`
		Fence     int64   `json:"fence"`
		UptimeS   float64 `json:"uptime_seconds"`
		Decisions uint64  `json:"decisions_recorded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Role != "primary" || body.Fence != 7 {
		t.Fatalf("healthz = %+v, want role primary fence 7", body)
	}
}

// TestDecisionsSinceCursor pins the incremental tail: ?since=SEQ
// returns exactly the retained decisions with Seq > SEQ, so a scraper
// can poll without re-reading the window.
func TestDecisionsSinceCursor(t *testing.T) {
	tel := New(16)
	for i := 0; i < 10; i++ {
		tel.Flight.Record(Decision{Iter: i})
	}
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/decisions?since=7")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var seqs []uint64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, d.Seq)
	}
	if len(seqs) != 3 || seqs[0] != 8 || seqs[2] != 10 {
		t.Fatalf("since=7 returned seqs %v, want [8 9 10]", seqs)
	}

	if resp, err := srv.Client().Get(srv.URL + "/decisions?since=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("bad since: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestDecisionsGzip pins the negotiated compression on the JSONL
// endpoints: an Accept-Encoding: gzip request gets a gzip body that
// inflates to the same JSONL.
func TestDecisionsGzip(t *testing.T) {
	tel := New(16)
	for i := 0; i < 5; i++ {
		tel.Flight.Record(Decision{Iter: i})
	}
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+"/decisions", nil)
	// Setting the header manually disables the transport's transparent
	// decompression, so the raw gzip body is observable.
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", resp.Header.Get("Content-Encoding"))
	}
	gz, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 5 {
		t.Fatalf("gzip body inflated to %d lines, want 5", len(lines))
	}
}

// TestTracesEndpoint pins the span exposition: /traces serves the span
// window as JSONL, ?trace= filters to one distributed trace by hex id,
// and a malformed id is a 400.
func TestTracesEndpoint(t *testing.T) {
	tel := New(8)
	tel.Spans.SetNode("n1")
	tel.Spans.Record(Span{Trace: 0xabc, ID: 1, Name: SpanDecode, Session: "s-1"})
	tel.Spans.Record(Span{Trace: 0xabc, ID: 2, Parent: 1, Name: SpanDecision, Session: "s-1"})
	tel.Spans.Record(Span{Trace: 0xdef, ID: 3, Name: SpanGuard, Session: "s-2"})
	srv := httptest.NewServer(tel.Handler())
	defer srv.Close()

	get := func(path string) []string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		s := strings.TrimSpace(string(body))
		if s == "" {
			return nil
		}
		return strings.Split(s, "\n")
	}

	if lines := get("/traces"); len(lines) != 3 {
		t.Fatalf("/traces returned %d spans, want 3", len(lines))
	}
	lines := get("/traces?trace=" + FormatID(0xabc))
	if len(lines) != 2 {
		t.Fatalf("filtered /traces returned %d spans, want 2", len(lines))
	}
	var span struct {
		Trace  string `json:"trace"`
		ID     string `json:"id"`
		Parent string `json:"parent"`
		Name   string `json:"name"`
		Node   string `json:"node"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &span); err != nil {
		t.Fatal(err)
	}
	if span.Name != SpanDecision || span.Node != "n1" || span.Trace != FormatID(0xabc) {
		t.Fatalf("span line %+v", span)
	}
	if p, ok := ParseID(span.Parent); !ok || p != 1 {
		t.Fatalf("span parent %q, want 1", span.Parent)
	}

	if resp, err := srv.Client().Get(srv.URL + "/traces?trace=zzz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("bad trace id: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestRegistryScrapeWhileUpdateRace hammers the registry from writer
// goroutines — counter adds, gauge sets, histogram observations, lazy
// registration of new labeled series — while scrapers render the
// Prometheus exposition. Run under -race, it pins the concurrency
// contract the rollup and drift gauges rely on.
func TestRegistryScrapeWhileUpdateRace(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("race_total", "c")
	g := reg.Gauge("race_gauge", "g")
	h := reg.Histogram("race_seconds", "h", MicroDurationBuckets())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Add(1)
				g.Set(float64(i))
				h.Observe(float64(i%100) * 1e-6)
				if i%50 == 0 {
					// Lazy per-tenant registration, the rollup's pattern.
					reg.Counter("race_tenant_total", "t",
						Label{Name: "tenant", Value: fmt.Sprintf("t%d-%d", w, i%4)}).Add(1)
				}
			}
		}(w)
	}
	var sg sync.WaitGroup
	for s := 0; s < 4; s++ {
		sg.Add(1)
		go func() {
			defer sg.Done()
			for i := 0; i < 200; i++ {
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Scrapers finish their fixed quota, then writers stand down.
	sg.Wait()
	close(stop)
	wg.Wait()
	if c.Value() <= 0 {
		t.Fatal("no writes landed")
	}
}

// TestFlightAndSpanChurnRace churns the flight recorder and the span
// buffer from concurrent writers while readers snapshot, tail with a
// cursor, and export JSONL — the scrape-under-load pattern the
// observability endpoints serve. Run under -race.
func TestFlightAndSpanChurnRace(t *testing.T) {
	tel := New(64)
	f := tel.Flight
	sp := NewSpanBuffer(64)
	sp.SetNode("churn")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f.Record(Decision{Iter: i, Session: "s", EnergyUsedJ: float64(i)})
				sp.Record(Span{Trace: uint64(w*1000 + i%10 + 1), ID: sp.NextID(), Name: SpanDecision})
			}
		}(w)
	}
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			var cursor uint64
			for i := 0; i < 200; i++ {
				for _, d := range tel.Decisions("", cursor, 0) {
					if d.Seq > cursor {
						cursor = d.Seq
					}
				}
				_ = writeJSONL(io.Discard, tel.Decisions("", 0, 16))
				_ = sp.Snapshot(uint64(i%10 + 1))
				_ = sp.WriteJSONL(io.Discard, 0)
			}
		}()
	}
	rg.Wait()
	close(stop)
	wg.Wait()
	if tel.seq.Load() == 0 || sp.Total() == 0 {
		t.Fatal("churn recorded nothing")
	}
}
