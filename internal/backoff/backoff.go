// Package backoff is the one capped-exponential retry loop: the
// client's wire calls and its failover rounds, sysfs actuation
// (internal/linuxsys) and RAPL counter reads (internal/sensors) all run
// through Policy.Do, and the fleet member's heartbeat draws its jittered
// back-off from Policy.Delay. It depends on nothing but the stdlib.
package backoff

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Policy is a capped exponential back-off schedule. The zero value
// makes 4 attempts, waiting 10ms before the first retry and doubling up
// to 250ms (the sysfs actuation defaults); callers with other defaults
// fill them in with Or.
type Policy struct {
	MaxAttempts int                 // total attempts including the first (default 4)
	BaseDelay   time.Duration       // delay before the first retry (default 10ms)
	MaxDelay    time.Duration       // back-off cap (default 250ms)
	Sleep       func(time.Duration) // injectable for tests (default: a timer wait cancellation cuts short)
}

var defaults = Policy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 250 * time.Millisecond}

// ErrExhausted marks a Do that made MaxAttempts attempts without success;
// the last attempt's error is wrapped alongside it.
var ErrExhausted = errors.New("backoff: retries exhausted")

// Or fills p's unset attempt and delay fields from def.
func (p Policy) Or(def Policy) Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = def.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = def.MaxDelay
	}
	return p
}

// Delay is the wait before retry n (n >= 1): BaseDelay doubled n-1
// times, capped at MaxDelay.
func (p Policy) Delay(n int) time.Duration {
	p = p.Or(defaults)
	d := p.BaseDelay
	for ; n > 1 && d < p.MaxDelay; n-- {
		d *= 2
	}
	return min(d, p.MaxDelay)
}

// permanent carries an error Do must return without retrying.
type permanent struct{ err error }

func (e permanent) Error() string { return e.err.Error() }

// Permanent marks err as not worth retrying: Do returns it at once,
// unwrapped.
func Permanent(err error) error { return permanent{err} }

// Do is DoContext without cancellation.
func (p Policy) Do(op func() error) (attempts int, err error) {
	return p.DoContext(context.Background(), op)
}

// DoContext calls op until it succeeds, returns a Permanent error, or
// has failed MaxAttempts times, sleeping Delay(n) after the n-th
// failure. Cancelling ctx stops the loop before the next attempt and
// cuts a back-off sleep short; DoContext then returns ctx's error. After
// the last attempt the error wraps both ErrExhausted and op's error.
func (p Policy) DoContext(ctx context.Context, op func() error) (attempts int, err error) {
	p = p.Or(defaults)
	for attempts = 1; ; attempts++ {
		if err := ctx.Err(); err != nil {
			return attempts - 1, err
		}
		err = op()
		if err == nil {
			return attempts, nil
		}
		if perm, ok := err.(permanent); ok {
			return attempts, perm.err
		}
		if attempts >= p.MaxAttempts {
			return attempts, fmt.Errorf("%w after %d attempts: %w", ErrExhausted, attempts, err)
		}
		if d := p.Delay(attempts); p.Sleep != nil {
			p.Sleep(d)
		} else {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
	}
}
