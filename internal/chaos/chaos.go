// Package chaos is the deterministic fault-injection harness for the live
// pipeline. The deployed system of §7.1 ran against a real 15k-taxi MDT
// feed over GPRS, where retransmissions, connection resets, outages and
// slow or lying disks are routine; this package reproduces those
// infrastructure-level faults as seeded, repeatable injectors that wrap the
// seams the production code already uses:
//
//   - Faults.Listener / Faults.RoundTripper wrap net.Listener and
//     http.RoundTripper with connection resets, latency spikes, partial
//     writes and mid-body cuts — the flaky-network half.
//   - Faults.FS wraps a store.FS with short writes, silent torn tails,
//     fsync errors and rename failures — the bad-disk half, aimed at the
//     ingest WAL, the history store and store.SaveFile.
//
// Every fault decision comes from one seeded PRNG behind a mutex, so a
// given seed produces the same decision sequence for the same call
// sequence, and Counts reports which faults actually fired — tests assert
// both that the system survived and that it was actually attacked.
package chaos

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Config sets the per-operation fault probabilities (all in [0, 1], zero
// disables the fault) and the PRNG seed.
type Config struct {
	// Seed fixes the fault decision sequence.
	Seed int64

	// Network faults — Listener and RoundTripper.
	ResetProb        float64       // abruptly close the connection mid-read/write
	LatencyProb      float64       // delay an I/O operation
	MaxLatency       time.Duration // upper bound for an injected delay (25ms when 0)
	PartialWriteProb float64       // write a prefix of the buffer, then reset
	CutBodyProb      float64       // RoundTripper: cut the response body mid-read
	RefuseProb       float64       // RoundTripper: fail the request before dialing

	// Filesystem faults — FS (the durable write paths).
	ShortWriteProb float64 // write a prefix and report an error
	SilentTornProb float64 // write a prefix, report success: a torn tail after rename
	SyncErrProb    float64 // fsync reports an error
	RenameErrProb  float64 // rename reports an error; the temp file is kept
}

// ErrInjected is the base error every injected fault wraps; tests can
// errors.Is against it to tell chaos from genuine failures.
var ErrInjected = errors.New("chaos: injected fault")

func injected(kind string) error {
	return &injectedError{kind: kind}
}

type injectedError struct{ kind string }

func (e *injectedError) Error() string { return "chaos: injected " + e.kind }
func (e *injectedError) Unwrap() error { return ErrInjected }

// Faults is a seeded fault plan. One Faults may back any number of
// injectors; all methods are safe for concurrent use.
type Faults struct {
	cfg     Config
	enabled atomic.Bool

	mu     sync.Mutex
	rng    *rand.Rand
	counts map[string]int
}

// New returns a fault plan seeded from cfg. It starts enabled.
func New(cfg Config) *Faults {
	if cfg.MaxLatency == 0 {
		cfg.MaxLatency = 25 * time.Millisecond
	}
	f := &Faults{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		counts: make(map[string]int),
	}
	f.enabled.Store(true)
	return f
}

// SetEnabled turns injection on or off; while off every wrapped operation
// passes through untouched (and draws no PRNG numbers). Tests use it to
// scope faults to one phase of a scenario.
func (f *Faults) SetEnabled(on bool) { f.enabled.Store(on) }

// hit draws one fault decision and records it under kind when it fires.
func (f *Faults) hit(kind string, p float64) bool {
	if p <= 0 || !f.enabled.Load() {
		return false
	}
	f.mu.Lock()
	ok := f.rng.Float64() < p
	if ok {
		f.counts[kind]++
	}
	f.mu.Unlock()
	return ok
}

// latency draws an injected delay duration in (0, MaxLatency].
func (f *Faults) latency() time.Duration {
	f.mu.Lock()
	d := time.Duration(f.rng.Int63n(int64(f.cfg.MaxLatency))) + 1
	f.mu.Unlock()
	return d
}

// part returns a strictly shorter prefix length for a buffer of n bytes
// (at least 0, at most n-1).
func (f *Faults) part(n int) int {
	if n <= 1 {
		return 0
	}
	f.mu.Lock()
	k := int(f.rng.Int63n(int64(n)))
	f.mu.Unlock()
	return k
}

// Count reports how many times the named fault fired.
func (f *Faults) Count(kind string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[kind]
}

// Counts snapshots every fault counter.
func (f *Faults) Counts() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.counts))
	for k, v := range f.counts {
		out[k] = v
	}
	return out
}

// Total reports how many faults fired across all kinds.
func (f *Faults) Total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, v := range f.counts {
		n += v
	}
	return n
}
