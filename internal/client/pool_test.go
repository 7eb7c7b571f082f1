package client

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jouleguard/internal/server"
	"jouleguard/internal/wire"
)

// TestMain drains the idle pool on the way out, as a process done with
// its daemons should, and fails the run if anything was left in it.
func TestMain(m *testing.M) {
	code := m.Run()
	CloseIdleStreams()
	if n := idleStreams.size(); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "client: %d streams still pooled after CloseIdleStreams\n", n)
		code = 1
	}
	os.Exit(code)
}

// size counts pooled streams across hosts.
func (p *streamPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, list := range p.idle {
		n += len(list)
	}
	return n
}

// poolDaemon is a daemon behind a real listener that counts what the pool
// is supposed to save: accepted connections that became v2 streams, and
// decisions and lifecycle calls that had to travel over v1.
type poolDaemon struct {
	srv      *server.Server
	ts       *httptest.Server
	stopOnce sync.Once
	upgrades atomic.Int64 // accepted TCP connections hijacked into streams
	v1Calls  atomic.Int64 // next/done requests over JSON
	v1Life   atomic.Int64 // register (POST) and close (DELETE) requests over JSON
}

// startPoolDaemon serves a fresh daemon on addr ("" = any port).
func startPoolDaemon(t *testing.T, addr string) *poolDaemon {
	t.Helper()
	d := newPoolDaemon(t, addr)
	d.ts.Start()
	return d
}

// newPoolDaemon builds the daemon unstarted, so a test can wrap its
// listener or handler before d.ts.Start.
func newPoolDaemon(t *testing.T, addr string) *poolDaemon {
	t.Helper()
	srv, err := server.New(server.Config{GlobalBudgetJ: 1e9, SweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	d := &poolDaemon{srv: srv}
	inner := srv.Handler()
	d.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/next") || strings.HasSuffix(r.URL.Path, "/done"):
			d.v1Calls.Add(1)
		case r.Method == http.MethodPost && r.URL.Path == wire.BasePath,
			r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, wire.BasePath+"/"):
			d.v1Life.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	if addr != "" {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		d.ts.Listener.Close()
		d.ts.Listener = l
	}
	d.ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateHijacked {
			d.upgrades.Add(1)
		}
	}
	t.Cleanup(d.stop)
	return d
}

// stop shuts the daemon down the way a process exit does: sessions
// drained, hijacked streams severed, listener and idle connections closed.
func (d *poolDaemon) stop() {
	d.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = d.srv.Shutdown(ctx)
		d.ts.Close()
	})
}

// lifecycle is one short session, shaped like the ones a service sells:
// Open, Next, iters-1 DoneNext, Done, Close. hc carries the v1 traffic;
// retries counts backoff sleeps.
func lifecycle(d *poolDaemon, hc *http.Client, tenant string, iters int, retries *atomic.Int64, owned func(*Session)) error {
	ctx := context.Background()
	clockS, energyJ := 0.0, 0.0
	sess, err := Open(ctx, Options{
		BaseURL: d.ts.URL, Tenant: tenant, App: "radar", Platform: "Tablet",
		Iterations: iters, Factor: 2, Seed: 11, HTTPClient: hc,
		Retry: RetryPolicy{BaseDelay: time.Millisecond, Sleep: func(time.Duration) { retries.Add(1) }},
	}, func() (float64, error) { return energyJ, nil }, func() float64 { return clockS })
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	_, _, err = sess.Next(ctx)
	for i := 0; err == nil && i < iters; i++ {
		if owned != nil {
			owned(sess)
		}
		clockS += 0.01
		energyJ += 0.05
		if i == iters-1 {
			err = sess.Done(ctx, 1)
			break
		}
		_, _, err = sess.DoneNext(ctx, 1)
	}
	if err != nil {
		return fmt.Errorf("iterating: %w", err)
	}
	if st := sess.LastStatus(); !st.Complete {
		return fmt.Errorf("workload incomplete: %+v", st)
	}
	if owned != nil {
		owned(nil)
	}
	if err := sess.Close(ctx); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := sess.Close(ctx); err != nil {
		return fmt.Errorf("closing a closed session: %w", err)
	}
	if _, _, err := sess.Next(ctx); err == nil {
		return fmt.Errorf("a closed session served Next")
	}
	return nil
}

// TestSessionsShareOneStream pins what the pool is for: the second of two
// sequential sessions pays no dial. Both ride the one TCP connection the
// first upgraded — registration, decisions and close — and nothing of
// either touches v1.
func TestSessionsShareOneStream(t *testing.T) {
	CloseIdleStreams()
	defer CloseIdleStreams()
	d := startPoolDaemon(t, "")
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	var retries atomic.Int64
	for i := 0; i < 2; i++ {
		if err := lifecycle(d, hc, "solo", 32, &retries, nil); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if n := idleStreams.size(); n != 1 {
			t.Fatalf("after session %d closed: %d streams pooled, want 1", i, n)
		}
	}
	if up, v1, life := d.upgrades.Load(), d.v1Calls.Load(), d.v1Life.Load(); up != 1 || v1 != 0 || life != 0 {
		t.Errorf("two sessions rode %d accepted connections as v2 streams and sent %d decisions and %d registers or closes over v1; want one shared stream, none, none", up, v1, life)
	}
	if retries.Load() != 0 {
		t.Errorf("%d retries", retries.Load())
	}
	CloseIdleStreams()
	if n := idleStreams.size(); n != 0 {
		t.Errorf("%d streams pooled after CloseIdleStreams", n)
	}
}

// TestStalePooledStream pins the price of a pooled stream that died while
// idle: Open draws it, so the register runs over v1, and nothing else —
// no error, no retry — whether the daemon merely severed its streams or
// was replaced by a new process on the same address (which the first
// Next dials).
func TestStalePooledStream(t *testing.T) {
	const iters = 32
	t.Run("streams severed", func(t *testing.T) {
		CloseIdleStreams()
		defer CloseIdleStreams()
		d := startPoolDaemon(t, "")
		hc := &http.Client{Transport: &http.Transport{}}
		defer hc.CloseIdleConnections()
		var retries atomic.Int64
		if err := lifecycle(d, hc, "a", iters, &retries, nil); err != nil {
			t.Fatal(err)
		}
		// The daemon drops its streams and, as after Shutdown, upgrades no
		// more: the stale stream costs the register, the refused re-dial
		// pins the rest of the session to v1.
		d.srv.CloseV2Streams()
		if err := lifecycle(d, hc, "a", iters, &retries, nil); err != nil {
			t.Fatalf("session after the daemon severed its streams: %v", err)
		}
		if v1, life, r := d.v1Calls.Load(), d.v1Life.Load(), retries.Load(); v1 != 1+2*(iters-1)+1 || life != 2 || r != 0 {
			t.Errorf("%d v1 decisions, %d v1 registers and closes, %d retries; want the whole second session on v1 (%d, 2) and none", v1, life, r, 2*iters)
		}
		if n := idleStreams.size(); n != 0 {
			t.Errorf("%d streams pooled to a daemon that refuses them", n)
		}
	})
	t.Run("daemon restarted", func(t *testing.T) {
		CloseIdleStreams()
		defer CloseIdleStreams()
		d := startPoolDaemon(t, "")
		hc := &http.Client{Transport: &http.Transport{}}
		var retries atomic.Int64
		if err := lifecycle(d, hc, "a", iters, &retries, nil); err != nil {
			t.Fatal(err)
		}
		addr := d.ts.Listener.Addr().String()
		d.stop()
		hc.CloseIdleConnections() // v1's own stale keep-alive is not under test
		d2 := startPoolDaemon(t, addr)
		if d2.ts.URL != d.ts.URL {
			t.Fatalf("restarted daemon at %s, want %s", d2.ts.URL, d.ts.URL)
		}
		if n := idleStreams.size(); n != 1 {
			t.Fatalf("%d streams pooled across the restart, want the stale one", n)
		}
		if err := lifecycle(d2, hc, "a", iters, &retries, nil); err != nil {
			t.Fatalf("session after the restart: %v", err)
		}
		if life, v1, up, r := d2.v1Life.Load(), d2.v1Calls.Load(), d2.upgrades.Load(), retries.Load(); life != 1 || v1 != 0 || up != 1 || r != 0 {
			t.Errorf("the restart cost %d v1 registers or closes, %d v1 decisions, %d dials, %d retries; want 1 (the register), 0, 1, 0", life, v1, up, r)
		}
		if n := idleStreams.size(); n != 1 {
			t.Errorf("%d streams pooled after the recovered session closed, want its fresh one", n)
		}
		hc.CloseIdleConnections()
	})
}

// TestPoolConcurrentLifecycles churns sessions from 16 goroutines (run
// under -race) against one daemon. A stream is never owned by two live
// sessions at once, no more streams are dialled than sessions were ever
// live together, and what is left pooled respects the cap.
func TestPoolConcurrentLifecycles(t *testing.T) {
	CloseIdleStreams()
	defer CloseIdleStreams()
	const workers, iters = 16, 32
	rounds := 200
	if testing.Short() {
		rounds = 20
	}
	d := startPoolDaemon(t, "")
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer hc.CloseIdleConnections()
	var owners sync.Map // *v2Stream -> worker
	var retries atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine *v2Stream
			// owned is told the live session before every round and nil
			// just before Close: it claims the session's stream, and gives
			// the claim up before the pool can hand the stream on.
			owned := func(s *Session) {
				var v *v2Stream
				if s != nil {
					v = s.v2
				}
				if v == mine {
					return
				}
				if mine != nil {
					owners.Delete(mine)
				}
				if mine = v; v != nil {
					if other, taken := owners.LoadOrStore(v, w); taken {
						t.Errorf("worker %d holds a stream worker %v's live session also holds", w, other)
					}
				}
			}
			for r := 0; r < rounds; r++ {
				if err := lifecycle(d, hc, fmt.Sprintf("w%02d", w), iters, &retries, owned); err != nil {
					t.Errorf("worker %d lifecycle %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if up, v1, life, r := d.upgrades.Load(), d.v1Calls.Load(), d.v1Life.Load(), retries.Load(); up > workers || v1 != 0 || life != 0 || r != 0 {
		t.Errorf("%d lifecycles cost %d dials, %d v1 decisions, %d v1 registers or closes, %d retries; want at most %d, 0, 0, 0", workers*rounds, up, v1, life, r, workers)
	}
	if n := idleStreams.size(); n < 1 || n > min(workers, maxIdleStreamsPerHost) {
		t.Errorf("%d streams pooled at rest, want 1..%d", n, min(workers, maxIdleStreamsPerHost))
	}
}

// fakeStream is a pooled stream with nothing behind it but a pipe, whose
// far end reports when the pool closes it.
func fakeStream(base string) (*v2Stream, func() bool) {
	near, far := net.Pipe()
	closed := func() bool {
		_ = far.SetReadDeadline(time.Now().Add(time.Second))
		_, err := far.Read(make([]byte, 1))
		return err != nil && !errors.Is(err, os.ErrDeadlineExceeded)
	}
	return &v2Stream{base: base, conn: near, enc: wire.GetEncoder(near), dec: wire.GetDecoder(near), clean: true}, closed
}

// TestStreamPoolCapAndExpiry drives a pool of its own on an injected
// clock: check-out is most-recent-first, a check-in beyond the per-host
// cap is closed, entries expire at the idle timeout — reaped on the next
// get or put for any host — and drop and closeIdle close what they take.
func TestStreamPoolCapAndExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	p := &streamPool{now: func() time.Time { return now }}
	const a, b = "http://a", "http://b"

	if p.get(a) != nil {
		t.Fatal("an empty pool produced a stream")
	}
	var streams []*v2Stream
	var closed []func() bool
	for i := 0; i < maxIdleStreamsPerHost+1; i++ {
		v, c := fakeStream(a)
		streams, closed = append(streams, v), append(closed, c)
		p.put(v)
		now = now.Add(time.Second)
	}
	if n := p.size(); n != maxIdleStreamsPerHost {
		t.Fatalf("%d streams pooled for one host, cap is %d", n, maxIdleStreamsPerHost)
	}
	if !closed[maxIdleStreamsPerHost]() {
		t.Error("the stream checked in beyond the cap was not closed")
	}
	if got := p.get(a); got != streams[maxIdleStreamsPerHost-1] {
		t.Error("check-out is not most-recent-first")
	}
	if p.get(b) != nil {
		t.Error("a stream crossed hosts")
	}

	// streams[0] went in at t=1000 and expires at 1090; streams[1] a
	// second later. A put for another host reaps the first and only it.
	now = time.Unix(1000, 0).Add(streamIdleTimeout)
	other, otherClosed := fakeStream(b)
	p.put(other)
	if !closed[0]() {
		t.Error("an expired stream survived a put for another host")
	}
	if n := p.size(); n != maxIdleStreamsPerHost-2+1 {
		t.Errorf("%d streams pooled after one expired, want %d", n, maxIdleStreamsPerHost-1)
	}
	// Everything of host a expires; a get for it comes back empty-handed
	// and closes them all, host b's younger stream stays.
	now = now.Add(time.Duration(maxIdleStreamsPerHost) * time.Second)
	if p.get(a) != nil {
		t.Error("an expired stream was checked out")
	}
	for i := 1; i < maxIdleStreamsPerHost-1; i++ {
		if !closed[i]() {
			t.Fatalf("expired stream %d not closed", i)
		}
	}
	if n := p.size(); n != 1 {
		t.Fatalf("%d streams pooled, want host b's one", n)
	}

	p.drop(a) // nothing there: must not disturb b
	if p.size() != 1 {
		t.Error("dropping one host's streams took another's")
	}
	p.drop(b)
	if !otherClosed() || p.size() != 0 {
		t.Error("drop left its host's stream open or pooled")
	}
	last, lastClosed := fakeStream(a)
	p.put(last)
	p.closeIdle()
	if !lastClosed() || p.size() != 0 {
		t.Error("closeIdle left a stream open or pooled")
	}
}
