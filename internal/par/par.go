// Package par is the shared bounded-parallelism runner for the experiment
// drivers. Every table, figure, ablation and chaos driver fans its cells out
// through Map, which guarantees two properties the evaluation pipeline
// depends on:
//
//   - Deterministic results: jobs write into caller-owned slots indexed by
//     job number, and Map itself imposes no ordering on those writes beyond
//     the happens-before edge of its return — so a driver's output is a pure
//     function of its inputs and seeds, independent of the worker count.
//     Regenerated CSVs are byte-identical whether the pool runs with one
//     worker or sixteen.
//   - Deterministic errors: when several jobs fail, Map reports the failure
//     of the lowest job index, not whichever goroutine lost the race.
//
// The worker count defaults to the machine size and can be pinned (globally
// via SetWorkers, or per call via MapWorkers) — the golden-determinism test
// uses this to assert serial and parallel execution produce identical
// structured results.
package par

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"jouleguard/internal/telemetry"
)

// workers is the pool size Map uses; 0 or negative means the environment
// default (JOULEGUARD_WORKERS if set, else runtime.NumCPU()).
var workers atomic.Int64

// envWorkers is the JOULEGUARD_WORKERS override, read once. It exists so
// the serial-vs-parallel byte-identity of regenerated results can be
// demonstrated from the command line without recompiling:
//
//	JOULEGUARD_WORKERS=1 go run ./cmd/jouleguard replicate -out /tmp/serial
var envWorkers = func() int {
	if v, err := strconv.Atoi(os.Getenv("JOULEGUARD_WORKERS")); err == nil && v > 0 {
		return v
	}
	return 0
}()

// sinkBox wraps the process-wide telemetry sink so atomic.Value always
// stores one concrete type regardless of the Sink implementation.
type sinkBox struct{ s telemetry.Sink }

var sink atomic.Value // holds sinkBox

// SetSink installs a process-wide telemetry sink for the runner; every
// Map/MapWorkers job reports JobStart (with the queue depth behind it)
// and JobDone through it. Pass nil to restore the no-op sink.
func SetSink(s telemetry.Sink) { sink.Store(sinkBox{telemetry.OrNop(s)}) }

func currentSink() telemetry.Sink {
	if b, ok := sink.Load().(sinkBox); ok {
		return b.s
	}
	return telemetry.Nop{}
}

// Workers returns the effective worker count Map will use for n jobs.
func Workers() int {
	w := int(workers.Load())
	if w <= 0 {
		w = envWorkers
	}
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return w
}

// SetWorkers pins the pool size (0 restores the machine default) and
// returns a function that restores the previous setting. Intended for tests
// that need to force serial or oversubscribed execution.
func SetWorkers(n int) (restore func()) {
	prev := workers.Swap(int64(n))
	return func() { workers.Store(prev) }
}

// Map runs n jobs over a worker pool sized to the machine (or the SetWorkers
// override) and waits for all of them. Any job error aborts the batch's
// remaining unstarted jobs; the error reported is the lowest-index failure.
func Map(n int, job func(i int) error) error {
	return MapWorkers(Workers(), n, job)
}

// MapWorkers is Map with an explicit pool size for this call only.
func MapWorkers(w, n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstIdx < 0 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstIdx >= 0
	}
	tele := currentSink()
	var next atomic.Int64
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed() {
					return
				}
				queued := n - int(next.Load())
				if queued < 0 {
					queued = 0
				}
				tele.JobStart(queued)
				err := job(i)
				tele.JobDone(err != nil)
				if err != nil {
					fail(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if firstIdx >= 0 {
		return fmt.Errorf("par: job %d: %w", firstIdx, firstErr)
	}
	return nil
}
