package client

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"time"

	"jouleguard/internal/wire"
)

// The client side of the v2 stream. Open checks a stream out of the
// idle pool (pool.go), or upgrades one HTTP request on the daemon into a
// persistent binary-frame stream, before it registers; the session's
// registration, its per-iteration Next/Done traffic and its Close then
// all ride that stream, and DoneNext batches the settle of the previous
// iteration with the fetch of the upcoming decision into a single round
// trip. Close hands the stream back to the pool for the next session.
//
// v2 is strictly an optimization with a hard fallback rule: any v2
// failure — upgrade refused, lifecycle frames not negotiated, transport
// error, or an error frame — executes the v1 JSON/HTTP path for that
// call. All of the client's resilience machinery (retry/backoff,
// re-bracketing after daemon restarts, fleet placement and failover)
// lives on the v1 path, so v2 never needs to reimplement it: the stream
// only ever carries calls that succeed outright. A register whose reply
// the stream lost is therefore sent again over v1 — at-least-once, as a
// v1 retry of a lost reply is.

// v2Stream is one upgraded connection. While a Session holds it, that
// Session owns it exclusively (Sessions are single-loop by contract), so
// no locking; between sessions it rests in the idle pool (pool.go).
type v2Stream struct {
	base string // the daemon it was dialled to: its key in the idle pool
	conn net.Conn
	enc  *wire.Encoder
	dec  *wire.Decoder
	// traced records whether the daemon echoed the FlagTraced capability
	// at upgrade; without it the session strips trace contexts from its
	// frames so an old peer never sees an extended payload.
	traced bool
	// lifecycle records whether the daemon echoed V2LifecycleHeader: only
	// then may the session register and close over the stream.
	lifecycle bool
	// clean is true between rounds: the last frame sent has been answered
	// in full and nothing unread trails the answer. Only a clean stream
	// may be handed to another session.
	clean bool
}

func (v *v2Stream) close() {
	wire.PutEncoder(v.enc)
	wire.PutDecoder(v.dec)
	v.conn.Close()
}

// v2DialTimeout bounds the dial and the upgrade handshake.
const v2DialTimeout = 5 * time.Second

// v2Ok reports whether the session can speak v2 right now: the daemon
// gave it a numeric id and it holds, or can get, a stream.
func (s *Session) v2Ok() bool {
	return s.num != 0 && s.v2Acquire()
}

// v2Acquire reports whether the session holds a stream, on first use
// checking one out of the idle pool or, failing that, dialing one. A
// failed dial turns v2 off for this node; fleet failover re-enables it
// against the session's new owner.
func (s *Session) v2Acquire() bool {
	if s.v2Disabled || s.v2Off {
		return false
	}
	if s.v2 != nil {
		return true
	}
	v := idleStreams.get(s.base)
	if v == nil {
		var err error
		if v, err = dialV2(s.base); err != nil {
			s.v2Off = true
			return false
		}
	}
	s.v2 = v
	return true
}

// v2Teardown closes the stream (transport error or node switch) — a
// stream that failed, or that leads to a node the session is leaving, is
// never pooled, and the idle streams to the same daemon go with it.
// reDial keeps v2 eligible — the next call dials fresh — while false pins
// the session to v1 until failover moves it.
func (s *Session) v2Teardown(reDial bool) {
	if s.v2 != nil {
		idleStreams.drop(s.v2.base)
		s.v2.close()
		s.v2 = nil
	}
	s.v2Off = !reDial
}

// v2Release ends a closed (or never opened) session's use of its stream:
// checked into the idle pool for the next session if its last round ended
// cleanly, closed otherwise.
func (s *Session) v2Release() {
	v := s.v2
	if v == nil {
		return
	}
	s.v2 = nil
	if v.clean {
		idleStreams.put(v)
	} else {
		v.close()
	}
}

// dialV2 opens a TCP connection to the daemon and upgrades it to the
// frame protocol with a plain HTTP/1.1 Upgrade handshake.
func dialV2(base string) (*v2Stream, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	if u.Scheme != "http" {
		return nil, fmt.Errorf("client: v2 stream requires http base URL, have %q", u.Scheme)
	}
	host := u.Host
	if u.Port() == "" {
		host = net.JoinHostPort(u.Hostname(), "80")
	}
	conn, err := net.DialTimeout("tcp", host, v2DialTimeout)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(v2DialTimeout))
	req := "POST " + wire.V2Path + " HTTP/1.1\r\n" +
		"Host: " + u.Host + "\r\n" +
		"Upgrade: " + wire.V2Proto + "\r\n" +
		"Connection: Upgrade\r\n" +
		wire.V2TraceHeader + ": 1\r\n" +
		wire.V2LifecycleHeader + ": 1\r\n" +
		"Content-Length: 0\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		conn.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 4096)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != wire.V2Proto {
		conn.Close()
		return nil, fmt.Errorf("client: daemon refused v2 upgrade (HTTP %d)", resp.StatusCode)
	}
	_ = conn.SetDeadline(time.Time{})
	// The decoder adopts br: the daemon's first frames may already sit in
	// its buffer behind the 101 response.
	return &v2Stream{
		base: base, conn: conn, enc: wire.GetEncoder(conn), dec: wire.GetDecoder(br),
		// A daemon that understands FlagTraced echoes the capability
		// header; anything else gets strictly base-length frames.
		traced:    resp.Header.Get(wire.V2TraceHeader) == "1",
		lifecycle: resp.Header.Get(wire.V2LifecycleHeader) == "1",
	}, nil
}

// v2Round sends one frame and reads the single response frame. A
// transport failure tears the stream down (reply-less writes are
// unrecoverable framing loss) and reports !ok so the caller runs the v1
// path.
func (s *Session) v2Round(send func(enc *wire.Encoder) error) (wire.Hdr, []byte, bool) {
	s.v2.clean = false
	if err := send(s.v2.enc); err != nil {
		s.v2Teardown(true)
		return wire.Hdr{}, nil, false
	}
	if err := s.v2.enc.Flush(); err != nil {
		s.v2Teardown(true)
		return wire.Hdr{}, nil, false
	}
	h, p, err := s.v2.dec.ReadFrame()
	if err != nil {
		s.v2Teardown(true)
		return wire.Hdr{}, nil, false
	}
	s.v2.clean = s.v2.dec.Buffered() == 0
	return h, p, true
}

// v2Call runs one request over the stream and parses its reply, which
// must be of type want. ok=false means "use v1" — for any reason,
// including server-reported errors, so the v1 path's error handling
// (retry, re-bracketing, failover) stays the single source of truth.
func v2Call[T any](s *Session, want byte, send func(enc *wire.Encoder) error, parse func(wire.Hdr, []byte) (T, error)) (T, bool) {
	var zero T
	h, p, ok := s.v2Round(send)
	if !ok || h.Type != want {
		return zero, false
	}
	resp, err := parse(h, p)
	if err != nil {
		s.v2Teardown(true)
		return zero, false
	}
	return resp, true
}

// v2Register registers the session over the stream Open acquired, when
// the daemon negotiated lifecycle frames.
func (s *Session) v2Register() (wire.RegisterResponse, bool) {
	if !s.v2Acquire() || !s.v2.lifecycle {
		return wire.RegisterResponse{}, false
	}
	return v2Call(s, wire.TRegisterResp, func(enc *wire.Encoder) error {
		return enc.Register(&s.reg)
	}, wire.ParseRegisterResp)
}

// v2Close closes the session over its stream.
func (s *Session) v2Close() (wire.CloseResponse, bool) {
	if !s.v2Ok() || !s.v2.lifecycle {
		return wire.CloseResponse{}, false
	}
	return v2Call(s, wire.TCloseResp, func(enc *wire.Encoder) error {
		return enc.CloseSession(s.num)
	}, wire.ParseCloseResp)
}

// v2Next runs one Next over the stream.
func (s *Session) v2Next(req wire.NextRequest) (wire.NextResponse, bool) {
	if !s.v2.traced {
		req.TraceID, req.SpanID = 0, 0
	}
	return v2Call(s, wire.TNextResp, func(enc *wire.Encoder) error {
		return enc.Next(s.num, &req)
	}, wire.ParseNextResp)
}

// v2Done runs one Done over the stream.
func (s *Session) v2Done(req wire.DoneRequest) (wire.DoneResponse, bool) {
	if !s.v2.traced {
		req.TraceID, req.SpanID = 0, 0
	}
	return v2Call(s, wire.TDoneResp, func(enc *wire.Encoder) error {
		return enc.Done(s.num, &req)
	}, wire.ParseDoneResp)
}

// DoneNext settles the completed iteration and fetches the next
// decision in one round trip — the steady-state batch. Semantically it
// is exactly Done(accuracy) followed by Next(), and over v1 (or on any
// v2 error) that is literally what runs; over v2 both ride one frame.
// The final iteration of a workload still ends with a plain Done.
func (s *Session) DoneNext(ctx context.Context, accuracy float64) (appCfg, sysCfg int, err error) {
	if s.closed {
		return 0, 0, fmt.Errorf("client: session %s is closed", s.id)
	}
	if s.armed && s.v2Ok() {
		energy, eerr := s.readEnergy()
		// The batched frame carries one trace context for the pair: a
		// sampled DoneNext traces both the settle of iteration i and the
		// decision for i+1.
		trace, span := s.mintTrace()
		if !s.v2.traced {
			trace, span = 0, 0
		}
		doneReq := wire.DoneRequest{
			NowS:      s.now(),
			EnergyJ:   energy,
			EnergyErr: eerr != nil,
			Accuracy:  accuracy,
			TraceID:   trace,
			SpanID:    span,
		}
		nextNow := s.now()
		h, p, ok := s.v2Round(func(enc *wire.Encoder) error {
			nextReq := wire.NextRequest{NowS: nextNow}
			return enc.DoneNext(s.num, &doneReq, &nextReq)
		})
		if ok {
			switch h.Type {
			case wire.TDoneNextResp:
				dresp, nresp, perr := wire.ParseDoneNextResp(h, p)
				if perr != nil {
					s.v2Teardown(true)
					break
				}
				s.settleDone(doneReq, dresp)
				s.armed = true
				s.armedNow = nextNow
				s.curTrace, s.curSpan = trace, span
				s.recordClientSpan(trace, span, doneReq.NowS, s.now(), nresp.Iter)
				return nresp.AppConfig, nresp.SysConfig, nil
			case wire.TDoneResp:
				// Done settled but Next could not be served (workload
				// complete, draining, ...): bank the settle, then let the
				// v1 Next report the authoritative error.
				dresp, perr := wire.ParseDoneResp(h, p)
				if perr != nil {
					s.v2Teardown(true)
					break
				}
				s.settleDone(doneReq, dresp)
				s.armed = false
				return s.Next(ctx)
			}
			// TErr (done itself failed) or an unexpected type: fall through
			// to the full v1 Done+Next below.
		}
	}
	if err := s.Done(ctx, accuracy); err != nil {
		return 0, 0, err
	}
	return s.Next(ctx)
}

// settleDone applies a successful Done settlement to the session's
// ledger mirror and failover history (shared by the v1 and v2 paths).
func (s *Session) settleDone(req wire.DoneRequest, resp wire.DoneResponse) {
	s.lastDone = resp
	s.record(iterHist{
		nextNow: s.armedNow, doneNow: req.NowS,
		energyJ: req.EnergyJ, energyErr: req.EnergyErr, accuracy: req.Accuracy,
	})
}
