package client

import (
	"sync"
	"time"
)

// The idle pool of v2 streams: the frame-stream twin of the keep-alive
// pool inside defaultHTTPClient. A stream is session-agnostic on the
// wire (every frame names its session), so the dial + HTTP upgrade +
// hijack a session used to pay on its first decision is paid once per
// connection instead: Close checks a quiescent stream in, the next
// session against the same daemon checks it out.
//
// Ownership rule: a stream is either in the pool or owned by exactly one
// live Session, never both — get removes it under the pool's lock, and
// only its owner's Close puts it back. The per-iteration path therefore
// touches no lock: the pool is visited when a session first needs a
// stream and when it ends.
//
// A pooled stream may have died while idle (daemon restarted, or its own
// idle timeout fired). Nothing probes for that: the stream fails its next
// round, and the rule for any v2 failure applies — that call runs over
// v1, the stream and its idle siblings are closed, the call after dials.

const (
	// streamIdleTimeout is how long a stream may sit in the pool. It is
	// the v1 pool's IdleConnTimeout, and well inside the five minutes
	// after which the daemon drops a silent stream.
	streamIdleTimeout = 90 * time.Second
	// maxIdleStreamsPerHost caps the pool per daemon; a stream checked in
	// beyond it is closed.
	maxIdleStreamsPerHost = 32
)

type idleStream struct {
	v     *v2Stream
	since time.Time
}

// streamPool holds idle streams per daemon base URL, oldest first.
// Expired entries are reaped on the way through get and put — there is
// no background goroutine — so a process that has stopped talking to a
// daemon sheds that daemon's streams the next time it uses the pool at
// all, or when it calls CloseIdleStreams.
type streamPool struct {
	mu   sync.Mutex
	idle map[string][]idleStream
	now  func() time.Time
}

var idleStreams = &streamPool{now: time.Now}

// CloseIdleStreams closes every pooled v2 stream, as
// http.Client.CloseIdleConnections does for v1's connections. Streams
// owned by live sessions are untouched. Call it when the process is done
// with its daemons.
func CloseIdleStreams() { idleStreams.closeIdle() }

// get checks out the most recently used live stream to base, or nil.
func (p *streamPool) get(base string) *v2Stream {
	p.mu.Lock()
	dead := p.reapLocked()
	var v *v2Stream
	if list := p.idle[base]; len(list) > 0 {
		last := len(list) - 1
		v, list[last] = list[last].v, idleStream{}
		p.setLocked(base, list[:last])
	}
	p.mu.Unlock()
	closeAll(dead)
	return v
}

// put checks a quiescent stream in.
func (p *streamPool) put(v *v2Stream) {
	p.mu.Lock()
	dead := p.reapLocked()
	if list := p.idle[v.base]; len(list) >= maxIdleStreamsPerHost {
		dead = append(dead, v)
	} else {
		if p.idle == nil {
			p.idle = make(map[string][]idleStream)
		}
		p.idle[v.base] = append(list, idleStream{v, p.now()})
	}
	p.mu.Unlock()
	closeAll(dead)
}

// drop closes every idle stream to base: one of its streams failed, or a
// session failed over from it, so its siblings are suspect too.
func (p *streamPool) drop(base string) {
	p.mu.Lock()
	list := p.idle[base]
	delete(p.idle, base)
	p.mu.Unlock()
	for _, e := range list {
		e.v.close()
	}
}

func (p *streamPool) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, list := range idle {
		for _, e := range list {
			e.v.close()
		}
	}
}

// reapLocked unlinks the expired entries of every host — a process talks
// to a handful — and returns their streams for the caller to close
// outside the lock.
func (p *streamPool) reapLocked() []*v2Stream {
	var dead []*v2Stream
	now := p.now()
	for base, list := range p.idle {
		k := 0
		for k < len(list) && now.Sub(list[k].since) >= streamIdleTimeout {
			dead = append(dead, list[k].v)
			k++
		}
		if k > 0 {
			p.setLocked(base, list[k:])
		}
	}
	return dead
}

// setLocked stores a host's list, forgetting the host once it is empty.
func (p *streamPool) setLocked(base string, list []idleStream) {
	if len(list) == 0 {
		delete(p.idle, base)
		return
	}
	p.idle[base] = list
}

func closeAll(streams []*v2Stream) {
	for _, v := range streams {
		v.close()
	}
}
