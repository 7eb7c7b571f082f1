package server

import (
	"errors"
	"io"
	"net"
	"net/http"
	"time"

	"jouleguard/internal/wire"
)

// The v2 stream: the client POSTs to /v2/stream with an Upgrade
// header, the daemon hijacks the connection, and both sides speak
// length-prefixed binary frames (internal/wire frame layer) from then
// on. A session's whole life rides the stream — TRegister and TClose
// around the per-iteration Next/Done/DoneNext traffic — and each frame
// calls the same Server method its v1 route does (Register,
// sessionNext, sessionDone, closeSession), so the two wires cannot
// drift. Introspection, snapshots and the cluster control plane stay on
// v1 JSON/HTTP.
//
// One goroutine serves each stream. Frames are dispatched strictly in
// order and answered in order (one response frame per request frame),
// and the reply buffer is flushed only when no further request bytes
// are already buffered — so a pipelined burst of frames from many
// multiplexed sessions costs one read and one write on the socket.
// Dispatch itself takes no server-wide lock (see shards.go): a frame
// naming a session costs one shard map read plus the session's own
// mutex.

// v2IdleTimeout bounds how long a stream may sit with no frames before
// the daemon drops it. It is deliberately generous — idle-session
// expiry is the session watchdog's job, not the transport's.
const v2IdleTimeout = 5 * time.Minute

// trackV2 registers a live stream; reports false when the daemon is
// past the point of accepting them (streams must not outlive Shutdown).
func (s *Server) trackV2(conn net.Conn) bool {
	s.v2Mu.Lock()
	defer s.v2Mu.Unlock()
	if s.v2Conns == nil {
		s.v2Conns = map[net.Conn]struct{}{}
	}
	if s.v2Closed {
		return false
	}
	s.v2Conns[conn] = struct{}{}
	return true
}

func (s *Server) untrackV2(conn net.Conn) {
	s.v2Mu.Lock()
	delete(s.v2Conns, conn)
	s.v2Mu.Unlock()
}

// CloseV2Streams severs every live v2 stream and refuses new ones.
// Shutdown calls it once the drain completes — a hijacked stream is
// invisible to the HTTP server's own connection teardown, so without
// this a "stopped" daemon would keep serving decisions over streams
// opened before it died. Clients fall back to v1, which reports the
// drain (or the dead listener) through the normal recovery machinery.
func (s *Server) CloseV2Streams() {
	s.v2Mu.Lock()
	conns := make([]net.Conn, 0, len(s.v2Conns))
	for c := range s.v2Conns {
		conns = append(conns, c)
	}
	s.v2Conns = map[net.Conn]struct{}{}
	s.v2Closed = true
	s.v2Mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) handleV2Stream(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Upgrade") != wire.V2Proto {
		wire.WriteError(w, &wire.Error{Code: wire.CodeBadRequest, Msg: "v2 stream requires Upgrade: " + wire.V2Proto})
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		wire.WriteError(w, &wire.Error{Code: wire.CodeBadRequest, Msg: "transport cannot upgrade to v2 frames"})
		return
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		wire.WriteError(w, &wire.Error{Code: wire.CodeBadRequest, Msg: "hijack failed: " + err.Error()})
		return
	}
	if !s.trackV2(conn) {
		conn.Close()
		return
	}
	defer s.untrackV2(conn)
	// The HTTP server's read/write deadlines die with the hijack; the
	// stream manages its own idle deadline per frame below.
	_ = conn.SetDeadline(time.Time{})
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: " + wire.V2Proto + "\r\n" +
		"Connection: Upgrade\r\n"
	// Trace capability negotiation: echo the client's header so it knows
	// this daemon accepts FlagTraced frame extensions. A client that never
	// sent it (or an old daemon that never echoes it) stays on strictly
	// base-length frames, so either side may lag the other.
	if r.Header.Get(wire.V2TraceHeader) == "1" {
		resp += wire.V2TraceHeader + ": 1\r\n"
	}
	// Lifecycle frames are negotiated the same way, so a client never
	// sends TRegister or TClose to a daemon that would drop the stream.
	if r.Header.Get(wire.V2LifecycleHeader) == "1" {
		resp += wire.V2LifecycleHeader + ": 1\r\n"
	}
	resp += "\r\n"
	if _, err := bufrw.WriteString(resp); err != nil {
		conn.Close()
		return
	}
	if err := bufrw.Flush(); err != nil {
		conn.Close()
		return
	}
	s.serveV2(conn, bufrw.Reader)
}

// serveV2 runs the frame dispatch loop until the peer goes away or a
// protocol error poisons the stream. The hijacked bufio.Reader is
// adopted by the decoder — it may already hold frames the client
// pipelined behind the upgrade request.
func (s *Server) serveV2(conn net.Conn, br io.Reader) {
	defer conn.Close()
	dec := wire.GetDecoder(br)
	enc := wire.GetEncoder(conn)
	defer wire.PutDecoder(dec)
	defer wire.PutEncoder(enc)

	for {
		_ = conn.SetReadDeadline(time.Now().Add(v2IdleTimeout))
		h, p, err := dec.ReadFrame()
		if err != nil {
			// EOF and closed/timed-out conns are normal teardown; a frame
			// with bad magic or an oversized payload means the peer has
			// lost framing, and the only safe move is to drop the stream.
			return
		}
		if err := s.dispatchV2(enc, h, p); err != nil {
			return
		}
		// Pipelining: answer everything already buffered before paying
		// for a socket write, so a burst of frames costs one flush.
		if dec.Buffered() == 0 {
			if err := enc.Flush(); err != nil {
				return
			}
		}
	}
}

// dispatchV2 serves one frame and encodes exactly one response frame. A
// returned error poisons the stream (encode failure or unknown type);
// per-request failures are TErr frames and keep the stream usable.
func (s *Server) dispatchV2(enc *wire.Encoder, h wire.Hdr, p []byte) error {
	switch h.Type {
	case wire.TNext:
		req, err := wire.ParseNext(h, p)
		if err != nil {
			return enc.Err(h.Session, wire.CodeBadRequest, err.Error())
		}
		sess := s.sessions.getNum(h.Session)
		if sess == nil {
			return enc.Err(h.Session, wire.CodeUnknownSession, "unknown v2 session")
		}
		if werr := s.gate(); werr != nil {
			return enc.Err(h.Session, werr.Code, werr.Msg)
		}
		resp, err := s.sessionNext(sess, req)
		if err != nil {
			return enc.Err(h.Session, wire.CodeOf(err), err.Error())
		}
		return enc.NextResp(h.Session, resp)

	case wire.TDone:
		req, err := wire.ParseDone(h, p)
		if err != nil {
			return enc.Err(h.Session, wire.CodeBadRequest, err.Error())
		}
		sess := s.sessions.getNum(h.Session)
		if sess == nil {
			return enc.Err(h.Session, wire.CodeUnknownSession, "unknown v2 session")
		}
		// Done is accepted even while draining or fenced, same as v1.
		resp, err := s.sessionDone(sess, req)
		if err != nil {
			return enc.Err(h.Session, wire.CodeOf(err), err.Error())
		}
		return enc.DoneResp(h.Session, resp)

	case wire.TDoneNext:
		done, next, err := wire.ParseDoneNext(h, p)
		if err != nil {
			return enc.Err(h.Session, wire.CodeBadRequest, err.Error())
		}
		sess := s.sessions.getNum(h.Session)
		if sess == nil {
			return enc.Err(h.Session, wire.CodeUnknownSession, "unknown v2 session")
		}
		doneResp, err := s.sessionDone(sess, done)
		if err != nil {
			// Done failed: nothing was settled, so no partial answer.
			return enc.Err(h.Session, wire.CodeOf(err), err.Error())
		}
		if werr := s.gate(); werr == nil {
			if nextResp, err := s.sessionNext(sess, next); err == nil {
				return enc.DoneNextResp(h.Session, doneResp, nextResp)
			}
		}
		// Done succeeded but Next cannot be served (workload complete,
		// draining, fenced, ...): answer TDoneResp alone so the settle is
		// not lost, and let the client fetch the Next error over v1.
		return enc.DoneResp(h.Session, doneResp)

	case wire.TRegister:
		req, err := wire.ParseRegister(h, p)
		if err != nil {
			return enc.Err(h.Session, wire.CodeBadRequest, err.Error())
		}
		resp, err := s.Register(req)
		if err != nil {
			return enc.Err(h.Session, wire.CodeOf(err), err.Error())
		}
		return enc.RegisterResp(&resp)

	case wire.TClose:
		if err := wire.ParseClose(h); err != nil {
			return enc.Err(h.Session, wire.CodeBadRequest, err.Error())
		}
		sess := s.sessions.getNum(h.Session)
		if sess == nil {
			return enc.Err(h.Session, wire.CodeUnknownSession, "unknown v2 session")
		}
		resp, err := s.closeSession(sess)
		if err != nil {
			return enc.Err(h.Session, wire.CodeOf(err), err.Error())
		}
		return enc.CloseResp(h.Session, &resp)

	default:
		// Unknown frame type: the peer speaks a newer dialect; drop the
		// stream rather than guess at its payload semantics.
		return errors.New("server: unknown v2 frame type")
	}
}
