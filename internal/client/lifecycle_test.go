package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"jouleguard/internal/wire"
)

// tapListener wraps a daemon's listener so a test can see the frames
// clients send on v2 streams, and can cut a stream at the moment the
// daemon writes a reply of one type — after the daemon acted on the
// request, before the client hears of it.
type tapListener struct {
	net.Listener
	cutOn byte // reply type whose write cuts the stream instead (0 = none)

	mu   sync.Mutex
	sent []byte // types of the frames clients sent, in arrival order
	cuts atomic.Int64
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, l: l}, nil
}

// sentTypes reports the frame types clients sent so far.
func (l *tapListener) sentTypes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.sent...)
}

// tapConn scans both directions of one accepted connection. A connection
// that did not open with a v2 upgrade request is passed through untouched.
type tapConn struct {
	net.Conn
	l       *tapListener
	in, out frameScanner
	plain   bool // not a v2 stream
	sniffed bool
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && !c.plain {
		if !c.sniffed {
			c.sniffed = true
			c.plain = !bytes.HasPrefix(b[:n], []byte("POST "+wire.V2Path+" "))
		}
		if !c.plain {
			types := c.in.feed(b[:n])
			c.l.mu.Lock()
			c.l.sent = append(c.l.sent, types...)
			c.l.mu.Unlock()
		}
	}
	return n, err
}

func (c *tapConn) Write(b []byte) (int, error) {
	if c.sniffed && !c.plain && c.l.cutOn != 0 && bytes.IndexByte(c.out.feed(b), c.l.cutOn) >= 0 {
		c.l.cuts.Add(1)
		c.Conn.Close()
		return 0, errors.New("tap: stream cut")
	}
	return c.Conn.Write(b)
}

// frameScanner finds frame boundaries in one direction of a v2 stream:
// it skips the HTTP upgrade exchange up to its blank line, then reports
// the type of every whole frame fed to it.
type frameScanner struct {
	buf      []byte
	upgraded bool
}

func (f *frameScanner) feed(b []byte) []byte {
	f.buf = append(f.buf, b...)
	if !f.upgraded {
		i := bytes.Index(f.buf, []byte("\r\n\r\n"))
		if i < 0 {
			return nil
		}
		f.upgraded = true
		f.buf = f.buf[i+4:]
	}
	var types []byte
	for len(f.buf) >= wire.HeaderLen {
		n := wire.HeaderLen + int(binary.LittleEndian.Uint32(f.buf[8:12]))
		if len(f.buf) < n {
			break
		}
		types = append(types, f.buf[2])
		f.buf = f.buf[n:]
	}
	return types
}

// tapDaemon starts a pool daemon whose listener is tapped.
func tapDaemon(t *testing.T, cutOn byte, handler func(http.Handler) http.Handler) (*poolDaemon, *tapListener) {
	t.Helper()
	d := newPoolDaemon(t, "")
	tap := &tapListener{Listener: d.ts.Listener, cutOn: cutOn}
	d.ts.Listener = tap
	if handler != nil {
		d.ts.Config.Handler = handler(d.ts.Config.Handler)
	}
	d.ts.Start()
	return d, tap
}

func count(types []byte, t byte) int { return bytes.Count(types, []byte{t}) }

// TestOldDaemonGetsNoLifecycleFrames pins the lifecycle frames'
// negotiation: against a daemon that does not echo V2LifecycleHeader —
// one that predates TRegister and TClose — the client registers and
// closes over v1 and sends neither frame, while its decisions still ride
// the stream.
func TestOldDaemonGetsNoLifecycleFrames(t *testing.T) {
	CloseIdleStreams()
	defer CloseIdleStreams()
	d, tap := tapDaemon(t, 0, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Del(wire.V2LifecycleHeader) // the daemon never hears the offer
			inner.ServeHTTP(w, r)
		})
	})
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	var retries atomic.Int64
	for i := 0; i < 2; i++ {
		if err := lifecycle(d, hc, "old", 8, &retries, nil); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	sent := tap.sentTypes()
	if n := count(sent, wire.TRegister) + count(sent, wire.TClose); n != 0 {
		t.Errorf("%d lifecycle frames sent to a daemon that did not negotiate them (frames %v)", n, sent)
	}
	if count(sent, wire.TDoneNext) == 0 {
		t.Errorf("no decisions rode the stream (frames %v)", sent)
	}
	if life, v1, up := d.v1Life.Load(), d.v1Calls.Load(), d.upgrades.Load(); life != 4 || v1 != 0 || up != 1 {
		t.Errorf("two sessions sent %d registers and closes and %d decisions over v1 on %d streams; want 4, 0, 1", life, v1, up)
	}
}

// TestRegisterReplyLost cuts the stream the moment the daemon writes a
// TRegisterResp: the daemon has admitted the session, the client never
// hears so. The client registers again over v1 — at-least-once, as a v1
// retry of a lost reply is — and the session it gets runs its workload
// to completion, its decisions back on a freshly dialled stream.
func TestRegisterReplyLost(t *testing.T) {
	CloseIdleStreams()
	defer CloseIdleStreams()
	d, tap := tapDaemon(t, wire.TRegisterResp, nil)
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	var retries atomic.Int64
	if err := lifecycle(d, hc, "torn", 8, &retries, nil); err != nil {
		t.Fatal(err)
	}
	if c, life, v1, up, r := tap.cuts.Load(), d.v1Life.Load(), d.v1Calls.Load(), d.upgrades.Load(), retries.Load(); c != 1 || life != 1 || v1 != 0 || up != 2 || r != 0 {
		t.Errorf("%d cuts, %d v1 registers or closes, %d v1 decisions, %d dials, %d retries; want 1, 1 (the register), 0, 2, 0", c, life, v1, up, r)
	}
	sent := tap.sentTypes()
	if count(sent, wire.TRegister) != 1 || count(sent, wire.TClose) != 1 {
		t.Errorf("frames %v: want one TRegister (cut) and one TClose", sent)
	}
	// Both registrations were admitted: the orphan waits, idle, for the
	// watchdog, as a v1 register whose reply was lost does.
	resp, err := hc.Get(d.ts.URL + wire.BasePath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list wire.ListResponse
	if err := wire.DecodeJSON(resp.Body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 2 || list.Sessions[0].State != "idle" || list.Sessions[1].State != "closed" {
		t.Errorf("daemon holds %+v; want the orphaned registration idle and the session closed", list.Sessions)
	}
}
