package main

import (
	"fmt"
	"time"
)

// procStart is read when the process initialises: set-up time is
// measured from here to the first timed operation.
var (
	procStart    = time.Now()
	procStartCPU = readCPUStat()
)

// nowNS is the harness clock: monotonic nanoseconds since process start.
func nowNS() int64 { return int64(time.Since(procStart)) }

// instant is one reading of the harness clock with the box's CPU
// accounting beside it, so that an interval can be reported net of the
// time the hypervisor withheld (see netNS).
type instant struct {
	ns  int64
	cpu cpuStat
}

func mark() instant { return instant{ns: nowNS(), cpu: readCPUStat()} }

// setupSeconds is the set-up time of a run whose first timed operation
// began at first.
func setupSeconds(first instant) float64 {
	return netNS(instant{cpu: procStartCPU}, first) / 1e9
}

// timing selects how the driver reads the clock.
type timing int

const (
	// timeEach makes every iteration a latency sample (two clock reads
	// per iteration: negligible beside a socket round trip).
	timeEach timing = iota
	// timeSegments reads the clock at segment boundaries only: two 44 ns
	// clock reads would be ~15% of an in-process iteration.
	timeSegments
	// timeSampled times every sampleEvery-th iteration, Done and Next
	// halves separately, and records a span for it: the traced rungs.
	timeSampled
)

const (
	sampleEvery = 16
	// warmShare is the leading share of every workload that runs untimed.
	warmShare = 0.05
)

// sample is one traced iteration of one rung.
type sample struct {
	iter           int
	start          int64 // ns since process start
	doneNS, nextNS int64 // the two halves; for a batched link doneNS is the whole round trip
	decideNS       int64 // time inside Governor.Decide (core rung; online link only)
	observeNS      int64 // time inside Governor.Observe
}

// driveResult is what one tenant's run leaves behind.
type driveResult struct {
	err      error
	calls    int                   // link calls attempted
	stamps   [segments + 1]instant // clock at each segment boundary
	segIters [segments]int
	lat      [segments][]float64 // ns per iteration, by segment
	samples  []sample
}

// armer is a link whose inner layers can be timed on demand.
type armer interface {
	arm(on bool)
	core() (decideNS, observeNS int64)
}

func (l *onlineLink) arm(on bool)          { l.gov.armed = on }
func (l *onlineLink) core() (int64, int64) { return l.gov.decideNS, l.gov.obsNS }

// drive runs the tenant's whole workload over the link: warm untimed
// iterations, then the timed part in segments equal parts by iteration
// count. One iteration of wire time is "settle iteration i, fetch the
// decision for i+1"; the workload's final iteration only settles.
// stop > 0 ends the run after stop iterations, leaving the session live:
// the set-up-only pass stops after the warm-up, the traced rungs after
// the ladder's prefix of the stream.
func drive(t *tenant, l link, warm, stop int, mode timing) *driveResult {
	r := &driveResult{}
	n := t.iters
	if stop > 0 && stop < n {
		n = stop
	}
	if warm > n {
		warm = 0
	}
	bounds := splitEven(n-warm, segments)
	for s := 0; s < segments; s++ {
		r.segIters[s] = bounds[s+1] - bounds[s]
		if mode == timeEach {
			r.lat[s] = make([]float64, 0, r.segIters[s])
		}
	}
	if mode == timeSampled {
		r.samples = make([]sample, 0, (n-warm)/sampleEvery+1)
	}
	b, batched := l.(batcher)
	a, _ := l.(armer)

	r.calls++
	app, sys, err := l.next(t)
	if err != nil {
		r.err = fmt.Errorf("%s: first Next: %w", t.name, err)
		return r
	}
	seg, nextBound := -1, warm
	for i := 0; i < n; i++ {
		if i == nextBound {
			seg++
			r.stamps[seg] = mark()
			if seg < segments {
				nextBound = warm + bounds[seg+1]
			}
		}
		acc := t.exec(app, sys)
		last := i == t.iters-1
		sampled := mode == timeSampled && seg >= 0 && i%sampleEvery == 0 && !last
		var t0, t1 int64
		if sampled || (mode == timeEach && seg >= 0) {
			if sampled && a != nil {
				a.arm(true)
			}
			t0 = nowNS()
		}
		switch {
		case last:
			r.calls++
			err = l.done(t, acc)
		case batched:
			r.calls++
			app, sys, err = b.doneNext(t, acc)
		default:
			r.calls += 2
			if err = l.done(t, acc); err == nil {
				if sampled {
					t1 = nowNS()
				}
				app, sys, err = l.next(t)
			}
		}
		if err != nil {
			r.err = fmt.Errorf("%s: iteration %d: %w", t.name, i, err)
			return r
		}
		switch {
		case sampled:
			t2 := nowNS()
			s := sample{iter: i, start: t0, doneNS: t2 - t0}
			if t1 != 0 {
				s.doneNS, s.nextNS = t1-t0, t2-t1
			}
			if a != nil {
				s.decideNS, s.observeNS = a.core()
				a.arm(false)
			}
			r.samples = append(r.samples, s)
		case mode == timeEach && seg >= 0 && !last:
			r.lat[seg] = append(r.lat[seg], float64(nowNS()-t0))
		}
	}
	r.stamps[segments] = mark()
	return r
}

// segmentRates returns each segment's aggregate iteration rate: tenants
// run concurrently, so a segment's rate is the sum of the tenants' own
// rates over their (nearly coincident) segment intervals.
func segmentRates(rs []*driveResult) []float64 {
	rates := make([]float64, segments)
	for _, r := range rs {
		for s := 0; s < segments; s++ {
			if dt := netNS(r.stamps[s], r.stamps[s+1]); dt > 0 {
				rates[s] += float64(r.segIters[s]) / (dt / 1e9)
			}
		}
	}
	return rates
}

// segmentLatencies pools the tenants' latency samples by segment.
func segmentLatencies(rs []*driveResult) [][]float64 {
	segs := make([][]float64, segments)
	for _, r := range rs {
		for s := 0; s < segments; s++ {
			segs[s] = append(segs[s], r.lat[s]...)
		}
	}
	return segs
}
