// Package heartbeats reproduces the instrumentation interface the paper's
// C runtime consumes (Sec. 3.5): applications emit a heartbeat per unit of
// work (a frame, a query batch), and the runtime reads windowed heart rates
// as its performance signal — "any performance metric can be used as long
// as it increases with increasing performance". This is the Application
// Heartbeats API (Hoffmann et al.) that PowerDial and JouleGuard build on.
package heartbeats

import (
	"fmt"
	"math"

	"jouleguard/internal/ckpt"
)

// Beat is one recorded heartbeat.
type Beat struct {
	Seq  uint64
	Time float64 // seconds (virtual or wall, the monitor does not care)
	Tag  int     // optional application tag (e.g. frame type)
}

// Monitor records heartbeats and serves windowed rate statistics.
type Monitor struct {
	window   int
	beats    []Beat // ring buffer of the last `window` beats
	head     int
	count    int
	seq      uint64
	lastTime float64
	started  bool
}

// NewMonitor creates a monitor with the given window size (the number of
// recent beats over which rates are computed).
func NewMonitor(window int) (*Monitor, error) {
	if window < 2 {
		return nil, fmt.Errorf("heartbeats: window %d must be at least 2", window)
	}
	return &Monitor{window: window, beats: make([]Beat, window)}, nil
}

// Beat records a heartbeat at the given timestamp. Timestamps must be
// non-decreasing; a regression is rejected.
func (m *Monitor) Beat(time float64, tag int) (uint64, error) {
	if math.IsNaN(time) || math.IsInf(time, 0) {
		return 0, fmt.Errorf("heartbeats: invalid timestamp %v", time)
	}
	if m.started && time < m.lastTime {
		return 0, fmt.Errorf("heartbeats: timestamp %v before previous %v", time, m.lastTime)
	}
	m.seq++
	b := Beat{Seq: m.seq, Time: time, Tag: tag}
	m.beats[m.head] = b
	m.head = (m.head + 1) % m.window
	if m.count < m.window {
		m.count++
	}
	m.lastTime = time
	m.started = true
	return m.seq, nil
}

// Count returns the total number of beats recorded.
func (m *Monitor) Count() uint64 { return m.seq }

// at returns the i-th most recent beat (0 = newest).
func (m *Monitor) at(i int) Beat {
	idx := (m.head - 1 - i + 2*m.window) % m.window
	return m.beats[idx]
}

// WindowRate returns the heart rate (beats/second) over the recorded
// window, or 0 until two beats exist.
func (m *Monitor) WindowRate() float64 {
	if m.count < 2 {
		return 0
	}
	newest := m.at(0)
	oldest := m.at(m.count - 1)
	dt := newest.Time - oldest.Time
	if dt <= 0 {
		return 0
	}
	return float64(m.count-1) / dt
}

// Window returns the configured window size.
func (m *Monitor) Window() int { return m.window }

// EncodeState appends the ring of recent beats and the sequence state to
// a checkpoint. Slots the ring has not reached yet are zero and travel as
// such, so the blob's length depends on the window alone.
func (m *Monitor) EncodeState(enc *ckpt.Enc) {
	enc.Int(m.window)
	for _, b := range m.beats {
		enc.Uint(b.Seq)
		enc.Float(b.Time)
		enc.Int(b.Tag)
	}
	enc.Int(m.head)
	enc.Int(m.count)
	enc.Uint(m.seq)
	enc.Float(m.lastTime)
	enc.Bool(m.started)
}

// DecodeState restores what EncodeState wrote into a Monitor of the same
// window; failures stick to d.
func (m *Monitor) DecodeState(d *ckpt.Dec) {
	if got := d.Int(); got != m.window {
		d.Fail("checkpoint of a %d-beat window, this monitor keeps %d", got, m.window)
		return
	}
	for i := range m.beats {
		m.beats[i] = Beat{Seq: d.Uint(), Time: d.Float(), Tag: d.Int()}
	}
	m.head = d.Count(m.window - 1)
	m.count = d.Count(m.window)
	m.seq = d.Uint()
	m.lastTime = d.Float()
	m.started = d.Bool()
}
