package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestSessionWindowLifecycle pins what a session sink shares with the
// process and what it keeps to itself: decisions go to the session's own
// window (listed from WithSession, holding the last min(sessionWindow,
// iterations), released by Close) and never to the process ring, which
// stays unallocated until an unbound decision arrives; Seq comes from the
// one process counter; and only the unbound sink sets the decision
// gauges, which the exposition leaves without a sample until it does.
// Every call into a session sink is made under its owner lock.
func TestSessionWindowLifecycle(t *testing.T) {
	tel := New(0)
	var ownA, ownB sync.Mutex
	a, b := WithSession(tel, "s-a", 10, &ownA, nil), WithSession(tel, "s-b", 1<<20, &ownB, nil)
	if got := b.window.size; got != sessionWindow {
		t.Fatalf("window of a long session holds %d, want %d", got, sessionWindow)
	}
	if len(tel.listed("")) != 3 || a.window.buf != nil {
		t.Fatal("a new session's window is unlisted, or allocated before its first decision")
	}
	for i := 0; i < 25; i++ {
		ownA.Lock()
		a.RecordDecision(Decision{Iter: i, Epsilon: 0.5, EnergyUsedJ: float64(i),
			Pole: 0.5, Stepped: true, Updated: true, UpdatedGain: 0.5})
		ownA.Unlock()
		ownB.Lock()
		b.RecordDecision(Decision{Iter: i})
		ownB.Unlock()
	}
	if tel.proc.window.buf != nil {
		t.Error("session decisions allocated the process ring")
	}
	var expo bytes.Buffer
	if err := tel.Registry.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"jouleguard_epsilon", "jouleguard_energy_used_joules", "jouleguard_pole", "jouleguard_estimator_gain"} {
		if !strings.Contains(expo.String(), "# TYPE "+name+" gauge\n") || strings.Contains(expo.String(), "\n"+name+" ") {
			t.Errorf("%s: want its family without a sample while only session sinks have written", name)
		}
	}
	ownA.Lock()
	got := a.WindowLocked()
	last, ok := a.LastLocked()
	ownA.Unlock()
	if len(got) != 10 || got[0].Iter != 15 || got[9].Iter != 24 || got[9].Session != "s-a" {
		t.Fatalf("window of s-a holds %d decisions, iters %d..%d, want the last 10 of 25", len(got), got[0].Iter, got[len(got)-1].Iter)
	}
	if !ok || last != got[9] {
		t.Errorf("LastLocked() = %+v, %v, want the newest windowed decision", last, ok)
	}

	tel.RecordDecision(Decision{Iter: 99, Epsilon: 0.25})
	if ring := tel.proc.window.snapshot(); tel.epsilon.Value() != 0.25 || len(ring) != 1 {
		t.Errorf("unbound decision: epsilon gauge %v, process ring %d", tel.epsilon.Value(), len(ring))
	}
	all := tel.Decisions("", 0, 0)
	if len(all) != 10+25+1 {
		t.Fatalf("merged stream holds %d decisions, want 36", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("merged stream out of Seq order at %d: %d after %d", i, all[i].Seq, all[i-1].Seq)
		}
	}
	if last := all[len(all)-1]; last.Seq != tel.seq.Load() || last.Iter != 99 {
		t.Errorf("newest merged decision %+v, want the unbound one at seq %d", last, tel.seq.Load())
	}
	if after := tel.Decisions("s-b", all[len(all)-3].Seq, 0); len(after) != 1 || after[0].Session != "s-b" {
		t.Errorf("s-b after the cursor: %+v, want its one newest decision", after)
	}
	if newest := tel.Decisions("", 0, 3); len(newest) != 3 || newest[2] != all[len(all)-1] || newest[0] != all[len(all)-3] {
		t.Errorf("last 3: %+v, want the newest three of the merged stream", newest)
	}

	a.Close()
	ownA.Lock()
	a.RecordDecision(Decision{Iter: 25})
	kept := len(a.WindowLocked())
	ownA.Unlock()
	if n := len(tel.Decisions("s-a", 0, 0)); n != 0 || kept != 0 {
		t.Errorf("closed window still serves %d decisions", n)
	}
	if len(tel.listed("")) != 2 {
		t.Error("a closed window is still listed")
	}
	if dec, _, _, _, _ := tel.CounterSummary(); dec != 25+25+1+1 {
		t.Errorf("decisions counted %v, want 52 (a closed sink still counts)", dec)
	}
}

// TestDecisionsReadIsBounded pins the size of one merged read: with more
// session windows than DefaultFlightCapacity decisions retained in all,
// a read returns the newest DefaultFlightCapacity, in Seq order, whatever
// n asks for.
func TestDecisionsReadIsBounded(t *testing.T) {
	tel := New(0)
	sessions := DefaultFlightCapacity/sessionWindow + 3
	owners := make([]sync.Mutex, sessions)
	for i := 0; i < sessions; i++ {
		s := WithSession(tel, "s-"+strings.Repeat("x", i+1), 0, &owners[i], nil)
		owners[i].Lock()
		for k := 0; k < sessionWindow; k++ {
			s.RecordDecision(Decision{Iter: k})
		}
		owners[i].Unlock()
	}
	total := tel.seq.Load()
	for _, n := range []int{0, DefaultFlightCapacity + 1, 1 << 30} {
		got := tel.Decisions("", 0, n)
		if len(got) != DefaultFlightCapacity {
			t.Fatalf("n=%d: read returned %d decisions, want the bound %d", n, len(got), DefaultFlightCapacity)
		}
		for i, d := range got {
			if want := total - uint64(len(got)-1-i); d.Seq != want {
				t.Fatalf("n=%d: decision %d has seq %d, want %d (the newest, oldest first)", n, i, d.Seq, want)
			}
		}
	}
	if got := tel.Decisions("", total-5, 0); len(got) != 5 || got[4].Seq != total {
		t.Errorf("?since= the sixth newest returned %d decisions", len(got))
	}
}
