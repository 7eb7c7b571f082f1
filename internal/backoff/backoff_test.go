package backoff

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDelayDoublesAndCaps(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		p    Policy
		want []time.Duration // Delay(1), Delay(2), ...
	}{
		{Policy{BaseDelay: 25 * ms, MaxDelay: time.Second},
			[]time.Duration{25 * ms, 50 * ms, 100 * ms, 200 * ms, 400 * ms, 800 * ms, time.Second, time.Second}},
		{Policy{BaseDelay: 10 * ms, MaxDelay: 15 * ms}, []time.Duration{10 * ms, 15 * ms, 15 * ms}},
		{Policy{BaseDelay: 100 * ms, MaxDelay: 800 * ms},
			[]time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 800 * ms, 800 * ms}},
		// The zero value's schedule: 10ms doubling to 250ms.
		{Policy{}, []time.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 250 * ms}},
		// A base above the cap is clamped from the first retry.
		{Policy{BaseDelay: time.Second, MaxDelay: 300 * ms}, []time.Duration{300 * ms, 300 * ms}},
	}
	for i, c := range cases {
		for n, want := range c.want {
			if got := c.p.Delay(n + 1); got != want {
				t.Errorf("case %d: Delay(%d) = %v, want %v", i, n+1, got, want)
			}
		}
	}
	// Far past the cap the doubling must not overflow into a negative wait.
	if got := (Policy{BaseDelay: time.Second, MaxDelay: time.Hour}).Delay(200); got != time.Hour {
		t.Errorf("Delay(200) = %v, want the cap", got)
	}
}

func TestDoSleepsTheScheduleBetweenAttempts(t *testing.T) {
	var slept []time.Duration
	p := Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 3 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}
	fail := errors.New("transient")
	calls := 0
	attempts, err := p.Do(func() error { calls++; return fail })
	if attempts != 4 || calls != 4 {
		t.Fatalf("attempts %d calls %d, want 4", attempts, calls)
	}
	if !errors.Is(err, ErrExhausted) || !errors.Is(err, fail) {
		t.Fatalf("err = %v, want ErrExhausted wrapping the last failure", err)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

func TestDoStopsOnPermanentAndSuccess(t *testing.T) {
	sleeps := 0
	p := Policy{Sleep: func(time.Duration) { sleeps++ }}
	fatal := errors.New("fatal")
	attempts, err := p.Do(func() error { return Permanent(fatal) })
	if attempts != 1 || err != fatal || sleeps != 0 {
		t.Fatalf("permanent: attempts %d err %v sleeps %d", attempts, err, sleeps)
	}
	n := 0
	attempts, err = p.Do(func() error {
		if n++; n < 3 {
			return errors.New("again")
		}
		return nil
	})
	if attempts != 3 || err != nil || sleeps != 2 {
		t.Fatalf("recovering op: attempts %d err %v sleeps %d", attempts, err, sleeps)
	}
}

func TestDoContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Cancelled during a back-off sleep: no further attempt.
	calls := 0
	p := Policy{MaxAttempts: 10, Sleep: func(time.Duration) { cancel() }}
	_, err := p.DoContext(ctx, func() error { calls++; return errors.New("down") })
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("err %v after %d calls, want context.Canceled after 1", err, calls)
	}
	// The default sleep returns as soon as the context is done.
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	start := time.Now()
	_, err = Policy{MaxAttempts: 2, BaseDelay: time.Minute, MaxDelay: time.Minute}.
		DoContext(ctx, func() error { return errors.New("down") })
	if !errors.Is(err, context.Canceled) || time.Since(start) > 10*time.Second {
		t.Fatalf("err %v after %v, want a prompt context.Canceled", err, time.Since(start))
	}
}

func TestOrFillsOnlyUnsetFields(t *testing.T) {
	def := Policy{MaxAttempts: 8, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second}
	got := Policy{BaseDelay: time.Millisecond}.Or(def)
	if got.MaxAttempts != 8 || got.BaseDelay != time.Millisecond || got.MaxDelay != time.Second {
		t.Fatalf("Or = %+v", got)
	}
}
