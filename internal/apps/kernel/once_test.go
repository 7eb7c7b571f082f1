package kernel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOnceMapComputesOncePerKey: many goroutines asking for overlapping
// keys at once run each key's computation exactly once, and every caller
// sees that computation's value.
func TestOnceMapComputesOncePerKey(t *testing.T) {
	const keys, callers = 64, 8
	var m OnceMap[int, int]
	var runs [keys]atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < keys; i++ {
				k := (i*7 + g*13) % keys // each caller walks the keys in its own order
				v := m.Get(k, func() int {
					runs[k].Add(1)
					return k * k
				})
				if v != k*k {
					t.Errorf("key %d: got %d, want %d", k, v, k*k)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for k := range runs {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
	}
}

// TestOnceMapWaitersShareOneComputation: a caller arriving while the first
// computation of its key is still running waits for it rather than
// computing again.
func TestOnceMapWaitersShareOneComputation(t *testing.T) {
	var m OnceMap[string, int]
	var runs atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	first := make(chan int)
	go func() {
		first <- m.Get("k", func() int {
			runs.Add(1)
			close(entered)
			<-release
			return 7
		})
	}()
	<-entered
	second := make(chan int)
	go func() {
		second <- m.Get("k", func() int { runs.Add(1); return 8 })
	}()
	time.Sleep(20 * time.Millisecond) // let the second caller reach Get
	close(release)
	if a, b := <-first, <-second; a != 7 || b != 7 {
		t.Fatalf("got %d and %d, want 7 and 7", a, b)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
}

// TestOnceMapKeepsNoFailure: an error reaches the caller and is not
// stored, and a panicking computation leaves no zero value behind — the
// next caller computes afresh.
func TestOnceMapKeepsNoFailure(t *testing.T) {
	var m OnceMap[int, int]
	boom := errors.New("boom")
	if _, err := m.Do(1, func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if v, err := m.Do(1, func() (int, error) { return 5, nil }); err != nil || v != 5 {
		t.Fatalf("after an error: got %d, %v; want 5, nil", v, err)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the computation's panic did not reach its caller")
			}
		}()
		m.Get(2, func() int { panic("boom") })
	}()
	if v := within(t, func() int { return m.Get(2, func() int { return 9 }) }); v != 9 {
		t.Fatalf("after a panic: got %d, want 9", v)
	}
}

// within runs f and fails the test if f has not returned in ten seconds:
// a map that kept a panicked entry would make its callers spin forever.
func within(t *testing.T, f func() int) int {
	t.Helper()
	c := make(chan int, 1)
	go func() { c <- f() }()
	select {
	case v := <-c:
		return v
	case <-time.After(10 * time.Second):
		t.Fatal("no result in ten seconds")
		return 0
	}
}

// TestOnceMapPanicReleasesWaiters: a caller waiting on a computation that
// panics computes the value itself instead of receiving a zero value.
func TestOnceMapPanicReleasesWaiters(t *testing.T) {
	var m OnceMap[int, int]
	entered, release := make(chan struct{}), make(chan struct{})
	panicked := make(chan bool)
	go func() {
		defer func() { panicked <- recover() != nil }()
		m.Get(1, func() int {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	waiter := make(chan int)
	go func() { waiter <- m.Get(1, func() int { return 4 }) }()
	time.Sleep(20 * time.Millisecond) // let the waiter reach Get
	close(release)
	if !<-panicked {
		t.Fatal("the first caller did not panic")
	}
	if v := within(t, func() int { return <-waiter }); v != 4 {
		t.Fatalf("waiter got %d, want 4", v)
	}
}

// TestOnceMapMax: past Max, new keys are computed on every call and not
// stored, while stored keys keep being served.
func TestOnceMapMax(t *testing.T) {
	m := OnceMap[int, int]{Max: 2}
	var runs atomic.Int32
	get := func(k int) int { return m.Get(k, func() int { runs.Add(1); return k }) }
	for _, k := range []int{0, 1, 0, 1} {
		get(k)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("stored keys recomputed: %d runs, want 2", n)
	}
	for i := 0; i < 3; i++ {
		if v := get(2); v != 2 {
			t.Fatalf("key past the cap: got %d", v)
		}
	}
	if n := runs.Load(); n != 5 {
		t.Fatalf("key past the cap: %d runs in all, want 5 (computed on every call)", n)
	}
}
