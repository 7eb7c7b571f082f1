package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
)

// dyadicEvents is one iteration's worth of every Sink event, repeated,
// with every float a small multiple of a power of two: sums of them are
// exact in any order, so a total does not depend on which goroutine's
// add landed first or on which stripe took it, and expositions can be
// compared byte for byte.
func dyadicEvents(s Sink, iters int) {
	for i := 0; i < iters; i++ {
		s.RecordDecision(Decision{
			Iter: i, AppConfig: i % 3, SysConfig: i % 5, BestArm: 1, Explored: i%4 == 0, Epsilon: 0.25,
			SpeedupCmd: 1.5, EnergyUsedJ: float64(i), BudgetRemainingJ: float64(100 - i), AllowedJPerIter: 0.5,
			Sane: true, GuardAccepted: i%7 != 0, Estimated: i%7 == 0, ActuationMiss: i%9 == 0,
		})
		s.ControlStep(12, 11.5, 0.5, 0.125, 1.5)
		s.EstimatorUpdate(i%5, 10, 20, 0.75)
		s.GuardVerdict(i%7 != 0, uint8(i%7), 0.25*float64(1+i%640))
		s.FaultInjected(uint8(i % 4))
		s.IterationDone(float64(1+i%37)/(1<<20), i%7 == 0)
		s.JobStart(10 - i%10)
		s.JobDone(i%13 == 0)
		if i%11 == 0 {
			s.WatchdogTrip()
		}
	}
}

// summedFamilies returns the exposition's counter and histogram families
// only: the series whose value is a total over every writer, which
// striping must not change. (A gauge is whatever the last writer set.)
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

// TestStripedTotalsMatchSerial runs the same events through 16
// goroutines sharing 8 session sinks (plus the daemon-side histogram
// observing on each session's stripe) while a scraper reads, and through
// one goroutine on the unstriped path. Every counter and histogram series
// must come out equal; the heartbeat summary must too, and must never be
// seen going backwards. Run under -race.
func TestStripedTotalsMatchSerial(t *testing.T) {
	const writers, sinks, iters = 16, 8, 400
	tel, serial := New(64), New(64)
	lat := tel.Registry.Histogram("daemon_seconds", "h", MicroDurationBuckets())
	latSerial := serial.Registry.Histogram("daemon_seconds", "h", MicroDurationBuckets())

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
			id := fmt.Sprintf("s-%06d", w%sinks+1)
			dyadicEvents(WithSession(tel, id, iters), iters)
			for i := 0; i < iters; i++ {
				lat.ObserveOn(StripeOf(id), float64(1+i%9)/(1<<19))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraped

	for w := 0; w < writers; w++ {
		dyadicEvents(serial, iters)
		for i := 0; i < iters; i++ {
			latSerial.Observe(float64(1+i%9) / (1 << 19))
		}
	}
	if got, want := summedFamilies(t, tel.Registry), summedFamilies(t, serial.Registry); got != want {
		t.Errorf("striped totals differ from the serial run's:\n%s\nserial:\n%s", got, want)
	}
	d1, i1, g1, w1, f1 := tel.CounterSummary()
	d2, i2, g2, w2, f2 := serial.CounterSummary()
	if d1 != d2 || i1 != i2 || g1 != g2 || w1 != w2 || f1 != f2 || d1 != writers*iters {
		t.Errorf("CounterSummary %v %v %v %v %v, serial %v %v %v %v %v", d1, i1, g1, w1, f1, d2, i2, g2, w2, f2)
	}
	if lat.Count() != latSerial.Count() || lat.Sum() != latSerial.Sum() {
		t.Errorf("histogram count/sum %d/%v, serial %d/%v", lat.Count(), lat.Sum(), latSerial.Count(), latSerial.Sum())
	}
}

// TestSessionStripesSpread pins the property striping rests on: the ids
// the daemon mints for consecutive sessions land on different stripes, so
// a handful of concurrent tenants do not share a counter cell. (Within a
// decade of ids only the last digit differs; 8 and 9 wrap onto the
// stripes of 0 and 1.)
func TestSessionStripesSpread(t *testing.T) {
	for decade := 0; decade < 2000; decade += 97 {
		seen := map[Stripe]string{}
		for digit := 0; digit < numStripes; digit++ {
			id := fmt.Sprintf("s-%05d%d", decade, digit)
			if other, dup := seen[StripeOf(id)]; dup {
				t.Fatalf("%s and %s share stripe %d", other, id, StripeOf(id))
			}
			seen[StripeOf(id)] = id
		}
	}
}

// goldenExposition is the full /metrics body after a fixed event
// sequence: through the unbound sink, through two session sinks, and
// straight into a labelled counter and a histogram.
func goldenExposition(t *testing.T) []byte {
	t.Helper()
	tel := New(8)
	dyadicEvents(tel, 50)
	dyadicEvents(WithSession(tel, "s-000001", 30), 30)
	dyadicEvents(WithSession(tel, "s-000002", 21), 21)
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

// TestExpositionGolden holds the exposition to the bytes the unstriped
// registry (the commit before stripes) rendered for the same events:
// names, label sets, order, bucket counts, sums and counts all
// unchanged. Two gauge values moved since: session sinks stopped setting
// the decision gauges, so jouleguard_energy_used_joules and
// jouleguard_budget_remaining_joules hold the unbound sink's last
// decision (49, 51) rather than the second session's (20, 80).
func TestExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenExposition(t); !bytes.Equal(got, want) {
		t.Errorf("exposition differs from testdata/exposition.golden:\n%s", got)
	}
}
