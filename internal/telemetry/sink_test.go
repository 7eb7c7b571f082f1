package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// dyadicEvents is one iteration's worth of every Sink event, repeated,
// each decision stepping the controller and updating an estimate and
// every 11th tripping the watchdog, with every float a small multiple of
// a power of two: sums of them are
// exact in any order, so a total does not depend on which goroutine's
// add or which sink's fold landed first, and expositions can be compared
// byte for byte. When owner is non-nil each iteration's calls
// are made under it, as the daemon makes a session's calls under the
// session mutex.
func dyadicEvents(s Sink, owner sync.Locker, iters int) {
	for i := 0; i < iters; i++ {
		if owner != nil {
			owner.Lock()
		}
		s.RecordDecision(Decision{
			Iter: i, AppConfig: i % 3, SysConfig: i % 5, BestArm: 1, Explored: i%4 == 0, Epsilon: 0.25,
			SpeedupCmd: 1.5, TargetRate: 12, PIError: 0.5, Pole: 0.125,
			EnergyUsedJ: float64(i), BudgetRemainingJ: float64(100 - i), AllowedJPerIter: 0.5,
			Sane: true, GuardAccepted: i%7 != 0, Estimated: i%7 == 0, ActuationMiss: i%9 == 0,
			Stepped: true, Updated: true, UpdatedGain: 0.75, Tripped: i%11 == 0,
		})
		s.FaultInjected(uint8(i % 4))
		s.IterationDone(float64(1+i%37)/(1<<20), i%7 != 0, uint8(i%7), 0.25*float64(1+i%640))
		s.JobStart(10 - i%10)
		s.JobDone(i%13 == 0)
		if owner != nil {
			owner.Unlock()
		}
	}
}

// summedFamilies returns the exposition's counter and histogram families
// only: the series whose value is a total over every writer, which how
// the writers share the sinks must not change. (A gauge is whatever the
// last writer set.)
func summedFamilies(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	keep := false
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if kind, ok := strings.CutPrefix(line, "# TYPE "); ok {
			keep = !strings.HasSuffix(kind, " gauge")
		}
		if keep && !strings.HasPrefix(line, "# HELP ") {
			out.WriteString(line + "\n")
		}
	}
	return out.String()
}

// TestSinkTotalsMatchSerial runs the same events through 16 goroutines
// sharing 8 session sinks, each call made under its sink's owner lock
// and each session also tallying decision latency, plus 4 goroutines
// sharing the unbound Telemetry with no lock of their own (the
// experiment pool's shape), while a scraper reads; and through one
// goroutine on the unbound path. Every counter and histogram series must
// come out equal; the heartbeat summary must too, and must never be seen
// going backwards. Run under -race.
func TestSinkTotalsMatchSerial(t *testing.T) {
	const writers, unbound, sinks, iters = 16, 4, 8, 400
	tel, serial := New(64), New(64)
	lat := tel.Registry.Histogram("daemon_seconds", "h", MicroDurationBuckets())
	latSerial := serial.Registry.Histogram("daemon_seconds", "h", MicroDurationBuckets())
	owners := make([]sync.Mutex, sinks)
	shared := make([]*SessionSink, sinks)
	for i := range shared {
		shared[i] = WithSession(tel, fmt.Sprintf("s-%06d", i+1), iters, &owners[i], lat)
	}

	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		var last float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tel.Registry.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			dec, _, _, _, _ := tel.CounterSummary()
			if dec < last {
				t.Errorf("decisions total went from %v to %v", last, dec)
				return
			}
			last = dec
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink, owner := shared[w%sinks], &owners[w%sinks]
			dyadicEvents(sink, owner, iters)
			for i := 0; i < iters; i++ {
				owner.Lock()
				sink.ObserveLatency(float64(1+i%9) / (1 << 19))
				owner.Unlock()
			}
		}(w)
	}
	for w := 0; w < unbound; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dyadicEvents(tel, nil, iters)
		}()
	}
	wg.Wait()
	close(stop)
	<-scraped

	for w := 0; w < writers+unbound; w++ {
		dyadicEvents(serial, nil, iters)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < iters; i++ {
			latSerial.Observe(float64(1+i%9) / (1 << 19))
		}
	}
	if got, want := summedFamilies(t, tel.Registry), summedFamilies(t, serial.Registry); got != want {
		t.Errorf("shared totals differ from the serial run's:\n%s\nserial:\n%s", got, want)
	}
	d1, i1, g1, w1, f1 := tel.CounterSummary()
	d2, i2, g2, w2, f2 := serial.CounterSummary()
	if d1 != d2 || i1 != i2 || g1 != g2 || w1 != w2 || f1 != f2 || d1 != (writers+unbound)*iters {
		t.Errorf("CounterSummary %v %v %v %v %v, serial %v %v %v %v %v", d1, i1, g1, w1, f1, d2, i2, g2, w2, f2)
	}
	if lat.Count() != latSerial.Count() || lat.Sum() != latSerial.Sum() {
		t.Errorf("histogram count/sum %d/%v, serial %d/%v", lat.Count(), lat.Sum(), latSerial.Count(), latSerial.Sum())
	}
}

// hookLocker is a mutex whose next Lock first runs hook (once, before it
// locks), so a test can put a read exactly where a sink's owner lock is
// taken.
type hookLocker struct {
	sync.Mutex
	hook func()
}

func (l *hookLocker) Lock() {
	if h := l.hook; h != nil {
		l.hook = nil
		h()
	}
	l.Mutex.Lock()
}

// TestCloseLeavesNoUncountedGap reads the counters at the moment Close
// takes the owner lock. Every event the sink recorded must be counted by
// that read: a Close that unlisted the sink before folding its tally
// left a window in which a scrape or heartbeat saw none of it.
func TestCloseLeavesNoUncountedGap(t *testing.T) {
	const recorded = 7
	tel := New(0)
	owner := &hookLocker{}
	sink := WithSession(tel, "s-000001", 0, owner, nil)
	for i := 0; i < recorded; i++ {
		sink.RecordDecision(Decision{Iter: i})
	}
	var during float64
	owner.hook = func() { during, _, _, _, _ = tel.CounterSummary() }
	sink.Close()
	if during != recorded {
		t.Errorf("a read as Close took the owner lock counted %v decisions, want %d", during, recorded)
	}
	if after, _, _, _, _ := tel.CounterSummary(); after != recorded {
		t.Errorf("after Close: %v decisions, want %d", after, recorded)
	}
}

// TestSessionLatencyGuards pins the two limits of a sink's latency
// tally: a sink given no histogram drops ObserveLatency's samples, and
// WithSession refuses a histogram with more buckets than a tally holds.
func TestSessionLatencyGuards(t *testing.T) {
	tel := New(0)
	var mu sync.Mutex
	sink := WithSession(tel, "s-000001", 0, &mu, nil)
	mu.Lock()
	sink.ObserveLatency(0.5)
	mu.Unlock()
	sink.Close()

	h := newHistogram(MicroDurationBuckets())
	sink = WithSession(tel, "s-000002", 0, &mu, h)
	mu.Lock()
	sink.ObserveLatency(0.5)
	mu.Unlock()
	sink.Close()
	if n := h.Count(); n != 1 {
		t.Errorf("latency histogram holds %d samples, want 1", n)
	}

	wide := make([]float64, maxTallyBuckets)
	for i := range wide {
		wide[i] = float64(i + 1)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("WithSession accepted a latency histogram of %d bounds", len(wide))
		}
	}()
	WithSession(tel, "s-000003", 0, &mu, newHistogram(wide))
}

// decisionsTotal reads jouleguard_decisions_total off an exposition.
func decisionsTotal(t *testing.T, expo string) float64 {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if v, ok := strings.CutPrefix(line, "jouleguard_decisions_total "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Error(err)
			}
			return f
		}
	}
	t.Error("exposition carries no jouleguard_decisions_total sample")
	return 0
}

// TestSessionTalliesExactOnRead has 4 session sinks decide concurrently,
// each under its own owner lock, while a reader scrapes and calls
// CounterSummary. Each read folds the sinks' tallies into the cells, so
// the decision total a read sees never goes backwards; once the writers
// return and record a last batch, one scrape (before any Close) must
// match the serial registry's counter and histogram series line for
// line, and closing the sinks must then change no total. Run under -race.
func TestSessionTalliesExactOnRead(t *testing.T) {
	const sinks, iters, tail = 4, 600, 50
	tel, serial := New(64), New(64)
	owners := make([]sync.Mutex, sinks)
	all := make([]*SessionSink, sinks)
	for i := range all {
		all[i] = WithSession(tel, fmt.Sprintf("s-%06d", i+1), iters, &owners[i], nil)
	}

	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		var last float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := tel.Registry.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			scraped := decisionsTotal(t, buf.String())
			summed, _, _, _, _ := tel.CounterSummary()
			if scraped < last || summed < scraped {
				t.Errorf("decisions total read %v, then %v, then %v", last, scraped, summed)
				return
			}
			last = summed
		}
	}()
	var wg sync.WaitGroup
	for i := range all {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dyadicEvents(all[i], &owners[i], iters)
		}(i)
	}
	wg.Wait()
	close(stop)
	<-read
	// A last batch no read has folded yet: the scrape below must.
	for i := range all {
		dyadicEvents(all[i], &owners[i], tail)
	}

	for range all {
		dyadicEvents(serial, nil, iters)
		dyadicEvents(serial, nil, tail)
	}
	want := summedFamilies(t, serial.Registry)
	if got := summedFamilies(t, tel.Registry); got != want {
		t.Fatalf("totals read before Close differ from the serial run's:\n%s\nserial:\n%s", got, want)
	}
	for _, s := range all {
		s.Close()
	}
	if got := summedFamilies(t, tel.Registry); got != want {
		t.Errorf("Close changed the totals:\n%s\nserial:\n%s", got, want)
	}
}

// goldenExposition is the full /metrics body after a fixed event
// sequence: through the unbound sink, through two session sinks, and
// straight into a labelled counter and a histogram.
func goldenExposition(t *testing.T) []byte {
	t.Helper()
	tel := New(8)
	var owner1, owner2 sync.Mutex
	dyadicEvents(tel, nil, 50)
	dyadicEvents(WithSession(tel, "s-000001", 30, &owner1, nil), &owner1, 30)
	dyadicEvents(WithSession(tel, "s-000002", 21, &owner2, nil), &owner2, 21)
	c := tel.Registry.Counter("golden_joules_total", "A float counter.", Label{"tenant", "a\"b"})
	c.Add(0.5)
	c.Add(2.25)
	h := tel.Registry.Histogram("golden_seconds", "A second histogram.", MicroDurationBuckets())
	for i := 0; i < 40; i++ {
		h.Observe(float64(i) / 4096)
	}
	var buf bytes.Buffer
	if err := tel.Registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExpositionGolden holds the exposition to the bytes the registry
// rendered for the same events when every event wrote its cells
// directly, before tallies and sinks: names, label sets, order, bucket
// counts, sums and counts all unchanged, whichever sink counted them.
// Two gauge values moved since: session sinks stopped setting the
// decision gauges, so jouleguard_energy_used_joules and
// jouleguard_budget_remaining_joules hold the unbound sink's last
// decision (49, 51) rather than the second session's (20, 80). The step,
// update and trip counters and the pole, pi_error, target_rate and
// estimator_gain gauges come from the decisions' flags and values, the
// guard series from IterationDone's verdicts.
func TestExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenExposition(t); !bytes.Equal(got, want) {
		t.Errorf("exposition differs from testdata/exposition.golden:\n%s", got)
	}
}
