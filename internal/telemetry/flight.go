package telemetry

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"
	"sync/atomic"
)

// DefaultFlightCapacity is the decision window kept when no capacity is
// given: large enough to hold a full default-length run on any platform.
const DefaultFlightCapacity = 4096

// FlightRecorder is a bounded ring buffer of controller decisions — the
// "black box" a live system can be asked about after the fact. Recording
// is a copy into a pre-allocated slot (no channel, no goroutine), so it
// is cheap enough to run on every control iteration; once the window
// fills, the oldest decision is overwritten. The ring is allocated by
// the first record, so a recorder nothing writes to costs a few words.
//
// A recorder is the window of one sink and has no lock of its own: it is
// guarded by its sink's owner lock (WithSession; Telemetry.mu for the
// process ring), which every writer already holds.
type FlightRecorder struct {
	buf    []Decision // nil until the first record, and once closed
	size   int        // len(buf) once allocated
	total  uint64     // decisions ever recorded here
	closed bool       // its sink closed: record keeps nothing
	// seq stamps Seq: the counter of the Telemetry the recorder belongs
	// to, shared by its process ring and every session window, so Seq
	// orders decisions across all of them.
	seq *atomic.Uint64
}

// record appends one decision, overwriting the oldest once full, and
// stamps its sequence number (1-based; the ?since= export cursor). A
// closed recorder drops the decision. Callers hold the recorder's guard.
func (f *FlightRecorder) record(d Decision) {
	if f.buf == nil {
		if f.closed {
			return
		}
		f.buf = make([]Decision, f.size)
	}
	d.Seq = f.seq.Add(1)
	f.buf[f.total%uint64(f.size)] = d
	f.total++
}

// retained returns how many decisions the ring holds and the i-th of
// them, oldest first. Callers hold the recorder's guard.
func (f *FlightRecorder) retained() (n int, at func(i int) *Decision) {
	if f.buf != nil {
		n = int(min(f.total, uint64(f.size)))
	}
	oldest := f.total - uint64(n)
	return n, func(i int) *Decision { return &f.buf[(oldest+uint64(i))%uint64(f.size)] }
}

// snapshot returns a copy of the retained decisions, oldest first.
// Callers hold the recorder's guard.
func (f *FlightRecorder) snapshot() []Decision {
	n, at := f.retained()
	out := make([]Decision, n)
	for i := range out {
		out[i] = *at(i)
	}
	return out
}

// last returns the newest retained decision; ok is false when the
// recorder holds none. Callers hold the recorder's guard.
func (f *FlightRecorder) last() (d Decision, ok bool) {
	if n, at := f.retained(); n > 0 {
		return *at(n - 1), true
	}
	return Decision{}, false
}

// offerNewest offers k the retained decisions with since < Seq <= hi
// (only session's when session is non-empty), newest first, and stops at
// the first one k turns down: every older one would be turned down too.
// Callers hold the recorder's guard.
func (f *FlightRecorder) offerNewest(k *newest, session string, since, hi uint64) {
	n, at := f.retained()
	for i := n - 1; i >= 0; i-- {
		d := at(i)
		switch {
		case d.Seq > hi || session != "" && d.Session != session:
			continue
		case d.Seq <= since || !k.offer(d):
			return
		}
	}
}

// newest keeps the n decisions with the highest Seq offered to it, so a
// read merging many recorders copies at most n decisions. h is a min-heap
// on Seq: h[0] is the kept decision a newcomer has to beat.
type newest struct {
	n int
	h []Decision
}

// offer keeps d if it is newer than one of the n kept so far, dropping
// the oldest kept to make room; it reports whether d was kept.
func (k *newest) offer(d *Decision) bool {
	h := k.h
	if len(h) < k.n {
		h = append(h, *d)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].Seq <= h[i].Seq {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		k.h = h
		return true
	}
	if len(h) == 0 || d.Seq <= h[0].Seq {
		return false
	}
	h[0] = *d
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].Seq < h[c].Seq {
			c++
		}
		if h[i].Seq <= h[c].Seq {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return true
}

// sorted returns the kept decisions oldest first.
func (k *newest) sorted() []Decision {
	slices.SortFunc(k.h, func(a, b Decision) int { return cmp.Compare(a.Seq, b.Seq) })
	return k.h
}

// writeJSONL writes ds one JSON object per line — the /decisions
// exposition and the offline-analysis dump format. Non-finite floats are
// sanitised to 0 before encoding (encoding/json cannot represent them);
// upstream guards keep the runtime's state finite, so this is a
// defensive clamp, not a lossy path.
func writeJSONL(w io.Writer, ds []Decision) error {
	enc := json.NewEncoder(w)
	for i := range ds {
		if err := enc.Encode(sanitizeDecision(ds[i])); err != nil {
			return err
		}
	}
	return nil
}

// sanitizeDecision clamps non-finite floats to 0 so the record is always
// JSON-encodable.
func sanitizeDecision(d Decision) Decision {
	fin := func(v *float64) {
		if math.IsNaN(*v) || math.IsInf(*v, 0) {
			*v = 0
		}
	}
	fin(&d.SEURate)
	fin(&d.SEUPower)
	fin(&d.SEUEfficiency)
	fin(&d.EstimatorGain)
	fin(&d.Epsilon)
	fin(&d.SpeedupCmd)
	fin(&d.TargetRate)
	fin(&d.PIError)
	fin(&d.Pole)
	fin(&d.EnergyUsedJ)
	fin(&d.BudgetRemainingJ)
	fin(&d.AllowedJPerIter)
	return d
}
