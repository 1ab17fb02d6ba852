package main

import (
	"math/rand"
	"slices"
	"sort"
	"syscall"
	"time"
)

// littleTolerance bounds loadgen.little_err, the relative gap between the
// sampled mean number of reads in flight and rate × mean latency. Sampling
// every millisecond over a few seconds keeps the estimate within a few
// percent on a healthy run; a reader that lost, double-counted or
// mis-timed reads misses by far more.
const littleTolerance = 0.25

// dueAt is the instant read i is due on a fixed schedule of rate reads per
// second starting at start. Arrivals never depend on how fast earlier
// reads completed: that is what makes the loop open.
func dueAt(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
}

// dueBy counts the reads due at or before elapsed time d (read 0 is due at
// d = 0), capped at n.
func dueBy(d time.Duration, rate float64, n int) int {
	if d < 0 {
		return 0
	}
	k := int(d.Seconds()*rate) + 1
	if k > n {
		k = n
	}
	return k
}

// littleErr is |L − λ·W| / (λ·W): how far the sampled mean in-flight count
// L strays from the arrival rate λ times the mean latency W (Little's Law,
// the identity the paper uses for L̄, applied to the reader itself).
func littleErr(sampledL, lambda, meanW float64) float64 {
	want := lambda * meanW
	if want == 0 {
		return 0
	}
	d := sampledL - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// readSample is one completed read of an open-loop run.
type readSample struct {
	op     int           // index into the operation mix
	lat    time.Duration // completion − due time
	late   time.Duration // send − due time: how late the generator ran
	end    time.Duration // completion, since the first due time
	failed bool
	stolen bool // the host stole CPU from this machine while it ran
}

// loadResult is everything one open-loop run measured.
type loadResult struct {
	samples  []readSample
	window   time.Duration // first due time to last completion
	inflight float64       // sampled mean of reads due but not completed
}

// openLoop issues reads on a fixed schedule of rate per second for window,
// one at a time on the caller's goroutine (one connection). call(i) performs
// read i and returns the index of the operation it ran and whether it
// succeeded. A read that is due while an earlier one is still running waits,
// and that wait counts in its latency, which runs from the due time.
//
// When steal is not nil, a goroutine reads it (the host's cumulative CPU
// steal) every stealEvery, and each read whose interval overlaps a period in
// which steal grew is marked stolen: its latency says more about the host
// than about the server.
func openLoop(rate float64, window time.Duration, call func(i int) (op int, ok bool), steal func() float64) loadResult {
	n := max(int(window.Seconds()*rate), 1)
	start := time.Now()
	var stolen []interval
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if steal == nil {
			return
		}
		prev, prevAt := steal(), time.Duration(0)
		for {
			select {
			case <-quit:
				return
			case <-time.After(stealEvery):
			}
			v, at := steal(), time.Since(start)
			if v > prev {
				stolen = append(stolen, interval{prevAt, at})
			}
			prev, prevAt = v, at
		}
	}()

	out := loadResult{samples: make([]readSample, 0, n)}
	for i := 0; i < n; i++ {
		due := dueAt(start, i, rate)
		sleepUntil(due)
		sent := time.Now()
		op, ok := call(i)
		end := time.Now()
		out.samples = append(out.samples, readSample{op: op, lat: end.Sub(due), late: sent.Sub(due), end: end.Sub(start), failed: !ok})
	}
	out.window = time.Since(start)
	close(quit)
	<-done
	markStolen(out.samples, stolen)
	out.inflight = sampleInflight(out.samples, rate, out.window, inflightSamples)
	return out
}

// stealEvery is how often openLoop reads the host's steal counter; the
// counter itself moves in 10 ms ticks.
const stealEvery = 20 * time.Millisecond

// interval is a span of time since an open-loop run started.
type interval struct{ from, to time.Duration }

// stealAfter extends each stolen interval: the server and the reader need a
// few tens of milliseconds to work off what queued while the host held the
// CPU, and reads in that wake are slow for the same reason.
const stealAfter = 50 * time.Millisecond

// markStolen flags every sample whose due-to-completion interval overlaps
// one of the (time-ordered) stolen intervals or the stealAfter that follows.
func markStolen(samples []readSample, stolen []interval) {
	for i := range samples {
		s := &samples[i]
		due := s.end - s.lat
		k := sort.Search(len(stolen), func(k int) bool { return stolen[k].to+stealAfter > due })
		s.stolen = k < len(stolen) && stolen[k].from < s.end
	}
}

// inflightSamples is how many instants sampleInflight draws.
const inflightSamples = 20000

// sampleInflight estimates the mean number of reads due but not completed
// over the window by counting them at k instants drawn uniformly at random
// (so, unlike a sampling goroutine, the instants cannot favour moments the
// driver happened to be running). Due reads come from the schedule,
// completions from the recorded completion times.
func sampleInflight(samples []readSample, rate float64, window time.Duration, k int) float64 {
	ends := make([]time.Duration, len(samples))
	for i, s := range samples {
		ends[i] = s.end
	}
	slices.Sort(ends)
	rng := rand.New(rand.NewSource(1))
	var sum int
	for j := 0; j < k; j++ {
		t := time.Duration(rng.Int63n(int64(window) + 1))
		completed, _ := slices.BinarySearch(ends, t+1)
		sum += dueBy(t, rate, len(samples)) - completed
	}
	return float64(sum) / float64(k)
}

// latenciesMs returns the latencies of the samples op selects (all when op
// is negative), in milliseconds.
func (r loadResult) latenciesMs(op int) []float64 {
	var out []float64
	for _, s := range r.samples {
		if op < 0 || s.op == op {
			out = append(out, float64(s.lat)/1e6)
		}
	}
	return out
}

// minClean is the fewest unstolen reads the latency figures are taken from;
// with fewer, they are taken from every read.
const minClean = 100

// clean returns the run restricted to the reads the host did not steal CPU
// from, or the whole run when fewer than minClean remain.
func (r loadResult) clean() loadResult {
	out := r
	out.samples = nil
	for _, s := range r.samples {
		if !s.stolen {
			out.samples = append(out.samples, s)
		}
	}
	if len(out.samples) < minClean {
		return r
	}
	return out
}

// stolenShare is the share of reads marked stolen.
func (r loadResult) stolenShare() float64 {
	n := 0
	for _, s := range r.samples {
		if s.stolen {
			n++
		}
	}
	return float64(n) / float64(max(len(r.samples), 1))
}

// windowed is the median, over consecutive sub-windows of width by due
// time, of each sub-window's q-quantile latency in milliseconds: a burst
// of noise moves one sub-window, not the whole figure.
func (r loadResult) windowed(q float64, width time.Duration) float64 {
	var per [][]float64
	for _, s := range r.samples {
		k := int((s.end - s.lat) / width)
		for len(per) <= k {
			per = append(per, nil)
		}
		per[k] = append(per[k], float64(s.lat)/1e6)
	}
	var qs []float64
	for _, xs := range per {
		if len(xs) > 0 {
			qs = append(qs, percentile(xs, q))
		}
	}
	return median(qs)
}

// lateMs is every sample's generator lateness in milliseconds.
func (r loadResult) lateMs() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = float64(s.late) / 1e6
	}
	return out
}

// little returns the run's Little's-Law relative error.
func (r loadResult) little() float64 {
	if r.window <= 0 || len(r.samples) == 0 {
		return 0
	}
	lambda := float64(len(r.samples)) / r.window.Seconds()
	return littleErr(r.inflight, lambda, mean(r.latenciesMs(-1))/1e3)
}

// spinWindow is how much of a wait sleepUntil spins instead of sleeping.
const spinWindow = 100 * time.Microsecond

// sleepUntil returns at t with about a microsecond of error. time.Sleep
// wakes up to a millisecond late on an idle Go scheduler, which would show
// as read latency; a nanosleep system call, which is late by tens of
// microseconds, covers all but the last spinWindow, which is spun.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		nanosleep(d)
	}
	for time.Now().Before(t) {
	}
}

// nanosleep blocks the calling thread for about d.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
