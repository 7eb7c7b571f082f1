package cluster

import (
	"testing"
	"time"
)

// TestBeatDelaySchedule pins the member's heartbeat back-off: the
// cadence while healthy, and after n consecutive failures the back-off
// doubling from one beat to a cap of 8 beats, scaled by a [0.5, 1.5)
// jitter drawn from the node-name-seeded generator. The literals are
// the delays node-a drew at a 100ms cadence before the schedule moved
// onto internal/backoff: same draws, same cap.
func TestBeatDelaySchedule(t *testing.T) {
	every := 100 * time.Millisecond
	if got := beatDelay(every, 0, nil); got != every {
		t.Fatalf("healthy delay %v, want the cadence", got)
	}
	want := []time.Duration{55169834, 284525518, 466617287, 902808458, 706130663, 521161353, 1181538664, 449687075}
	rng := beatRand("node-a")
	for fails, w := range want {
		if got := beatDelay(every, fails+1, rng); got != w {
			t.Errorf("failure %d: delay %d, want %d", fails+1, got, w)
		}
	}
}
