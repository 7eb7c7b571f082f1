package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"

	"jouleguard/internal/server"
	"jouleguard/internal/wire"
)

// The latency ladder. Inside client.Session.DoneNext the harness can see
// only one span, so the traced run replays the same seeded iteration
// stream through successively deeper public entry points:
//
//	core ⊂ online ⊂ server ⊂ server.http | wire.v2 ⊂ client.pipe ⊂ client
//
// and records one span per rung per sampled iteration. A rung's self
// time is its median span minus the median span of the rung beneath it,
// so the rungs sum to the top span by construction. Every rung must
// decide the same (appCfg, sysCfg) sequence, which is what makes spans
// from different replays comparable.

// httpLink drives the daemon's v1 routes through Handler().ServeHTTP
// with an in-memory response: routing and JSON, no socket.
type httpLink struct {
	h     http.Handler
	id    string
	grant float64
	last  wire.DoneResponse
	body  bytes.Buffer
	rec   memResponse
}

// memResponse is the smallest http.ResponseWriter: it keeps the status
// and the body.
type memResponse struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.hdr }
func (m *memResponse) WriteHeader(status int)      { m.status = status }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }

func newHTTPLink(srv *server.Server, t *tenant) (*httpLink, error) {
	l := &httpLink{h: srv.Handler(), rec: memResponse{hdr: http.Header{}}}
	var resp wire.RegisterResponse
	if err := l.post(wire.BasePath, registerRequest(t), &resp); err != nil {
		return nil, err
	}
	l.id, l.grant = resp.SessionID, resp.GrantJ
	return l, nil
}

func (l *httpLink) roundTrip(method, path string, in, out any) error {
	l.body.Reset()
	if in != nil {
		if err := json.NewEncoder(&l.body).Encode(in); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, path, &l.body)
	if err != nil {
		return err
	}
	l.rec.status = http.StatusOK
	l.rec.body.Reset()
	l.h.ServeHTTP(&l.rec, req)
	if l.rec.status >= 300 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, l.rec.status, strings.TrimSpace(l.rec.body.String()))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(l.rec.body.Bytes(), out)
}

func (l *httpLink) post(path string, in, out any) error { return l.roundTrip("POST", path, in, out) }

func (l *httpLink) next(t *tenant) (int, int, error) {
	var r wire.NextResponse
	err := l.post(wire.BasePath+"/"+l.id+"/next", wire.NextRequest{NowS: t.clockS}, &r)
	return r.AppConfig, r.SysConfig, err
}

func (l *httpLink) done(t *tenant, acc float64) error {
	var r wire.DoneResponse
	err := l.post(wire.BasePath+"/"+l.id+"/done", wire.DoneRequest{NowS: t.clockS, EnergyJ: t.energyJ, Accuracy: acc}, &r)
	if err == nil {
		l.last = r
	}
	return err
}

func (l *httpLink) ledger() (float64, float64) { return l.grant, l.last.SpentJ }
func (l *httpLink) close() error {
	return l.roundTrip("DELETE", wire.BasePath+"/"+l.id, nil, nil)
}

// frameLink wraps the daemon's direct calls in the v2 codec: the request
// frame is encoded and decoded, the call made, the response frame
// encoded and decoded, all through memory.
type frameLink struct {
	serverLink
	num      uint32
	req, rsp bytes.Buffer
	reqEnc   *wire.Encoder
	reqDec   *wire.Decoder
	rspEnc   *wire.Encoder
	rspDec   *wire.Decoder
}

func newFrameLink(srv *server.Server, t *tenant) (*frameLink, error) {
	resp, err := srv.Register(registerRequest(t))
	if err != nil {
		return nil, err
	}
	l := &frameLink{serverLink: serverLink{srv: srv, id: resp.SessionID, grant: resp.GrantJ}, num: resp.SessionNum}
	l.reqEnc, l.reqDec = wire.NewEncoder(&l.req), wire.NewDecoder(&l.req)
	l.rspEnc, l.rspDec = wire.NewEncoder(&l.rsp), wire.NewDecoder(&l.rsp)
	return l, nil
}

func (l *frameLink) doneNext(t *tenant, acc float64) (int, int, error) {
	done := wire.DoneRequest{NowS: t.clockS, EnergyJ: t.energyJ, Accuracy: acc}
	next := wire.NextRequest{NowS: t.clockS}
	if err := l.reqEnc.DoneNext(l.num, &done, &next); err != nil {
		return 0, 0, err
	}
	if err := l.reqEnc.Flush(); err != nil {
		return 0, 0, err
	}
	h, p, err := l.reqDec.ReadFrame()
	if err != nil {
		return 0, 0, err
	}
	dreq, nreq, err := wire.ParseDoneNext(h, p)
	if err != nil {
		return 0, 0, err
	}
	dresp, err := l.srv.Done(l.id, dreq)
	if err != nil {
		return 0, 0, err
	}
	nresp, err := l.srv.Next(l.id, nreq)
	if err != nil {
		return 0, 0, err
	}
	if err := l.rspEnc.DoneNextResp(l.num, dresp, nresp); err != nil {
		return 0, 0, err
	}
	if err := l.rspEnc.Flush(); err != nil {
		return 0, 0, err
	}
	if h, p, err = l.rspDec.ReadFrame(); err != nil {
		return 0, 0, err
	}
	dresp, nresp, err = wire.ParseDoneNextResp(h, p)
	if err != nil {
		return 0, 0, err
	}
	l.last = dresp
	return nresp.AppConfig, nresp.SysConfig, nil
}

// memListener hands the daemon's HTTP server in-memory connections:
// everything a loopback listener does except the kernel socket.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newMemListener() *memListener {
	return &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *memListener) Addr() net.Addr { return memAddr{} }

func (l *memListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// memDaemon is a daemon served over a memListener.
type memDaemon struct {
	srv  *server.Server
	http *http.Server
	ln   *memListener
	// client carries v1 calls over in-memory connections.
	client *http.Client
}

func startMemDaemon(globalJ float64) (*memDaemon, error) {
	srv, err := server.New(server.Config{GlobalBudgetJ: globalJ})
	if err != nil {
		return nil, err
	}
	d := &memDaemon{srv: srv, ln: newMemListener(), http: &http.Server{Handler: srv.Handler()}}
	d.client = &http.Client{Transport: &http.Transport{
		DialContext:         func(context.Context, string, string) (net.Conn, error) { return d.ln.dial() },
		MaxIdleConnsPerHost: 16,
	}}
	go func() { _ = d.http.Serve(d.ln) }()
	return d, nil
}

func (d *memDaemon) stop() {
	d.client.CloseIdleConnections()
	(&daemon{srv: d.srv, http: d.http}).stop()
}

// pipeV2Link speaks v2 frames to the daemon's own stream handler over an
// in-memory connection: the harness performs the upgrade handshake and
// the framing itself, because the client library dials TCP only.
type pipeV2Link struct {
	serverLink
	num  uint32
	conn net.Conn
	enc  *wire.Encoder
	dec  *wire.Decoder
}

func newPipeV2Link(d *memDaemon, t *tenant) (*pipeV2Link, error) {
	resp, err := d.srv.Register(registerRequest(t))
	if err != nil {
		return nil, err
	}
	conn, err := d.ln.dial()
	if err != nil {
		return nil, err
	}
	req := "POST " + wire.V2Path + " HTTP/1.1\r\nHost: mem\r\nUpgrade: " + wire.V2Proto +
		"\r\nConnection: Upgrade\r\nContent-Length: 0\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	hresp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusSwitchingProtocols {
		conn.Close()
		return nil, fmt.Errorf("daemon refused the v2 upgrade over the in-memory connection (HTTP %d)", hresp.StatusCode)
	}
	return &pipeV2Link{
		serverLink: serverLink{srv: d.srv, id: resp.SessionID, grant: resp.GrantJ},
		num:        resp.SessionNum, conn: conn, enc: wire.NewEncoder(conn), dec: wire.NewDecoder(br),
	}, nil
}

func (l *pipeV2Link) doneNext(t *tenant, acc float64) (int, int, error) {
	done := wire.DoneRequest{NowS: t.clockS, EnergyJ: t.energyJ, Accuracy: acc}
	next := wire.NextRequest{NowS: t.clockS}
	if err := l.enc.DoneNext(l.num, &done, &next); err != nil {
		return 0, 0, err
	}
	if err := l.enc.Flush(); err != nil {
		return 0, 0, err
	}
	h, p, err := l.dec.ReadFrame()
	if err != nil {
		return 0, 0, err
	}
	if h.Type == wire.TErr {
		code, msg, _ := wire.ParseErr(h, p)
		return 0, 0, fmt.Errorf("daemon error frame %s: %s", code, msg)
	}
	dresp, nresp, err := wire.ParseDoneNextResp(h, p)
	if err != nil {
		return 0, 0, err
	}
	l.last = dresp
	return nresp.AppConfig, nresp.SysConfig, nil
}

func (l *pipeV2Link) close() error {
	l.conn.Close()
	return l.serverLink.close()
}

// rung is one replay of the stream through one entry point.
type rung struct {
	name    string
	results []*driveResult
	digest  uint64
}

func (r *rung) field(f func(sample) int64) []float64 {
	var out []float64
	for _, res := range r.results {
		for _, s := range res.samples {
			out = append(out, float64(f(s)))
		}
	}
	return out
}

// runRung replays the first stop iterations of the tenants' stream over
// links built by open, in the driver's sampled mode, and records the
// sampled iterations as spans.
func runRung(name string, tenants []*tenant, stop int, open func(t *tenant) (link, error), spans *spanLog) (*rung, error) {
	fresh := make([]*tenant, len(tenants))
	links := make([]link, len(tenants))
	for i, t := range tenants {
		fresh[i] = t.fresh()
		l, err := open(fresh[i])
		if err != nil {
			return nil, fmt.Errorf("rung %s: %w", name, err)
		}
		links[i] = l
	}
	rs := driveAll(fresh, links, warmIters(stop), stop, timeSampled)
	for i, l := range links {
		if rs[i].err != nil {
			return nil, fmt.Errorf("rung %s: %w", name, rs[i].err)
		}
		_ = l.close() // a live session closed early; nothing to check
		for _, s := range rs[i].samples {
			end := s.start + s.doneNS + s.nextNS
			id := spans.add(name, -1, i, s.iter, s.start, end)
			if s.decideNS+s.observeNS > 0 {
				// The governor's own time, measured inside this very call.
				spans.add("core", id, i, s.iter, s.start, s.start+s.decideNS+s.observeNS)
			}
		}
	}
	return &rung{name: name, results: rs, digest: fresh[0].digest}, nil
}
