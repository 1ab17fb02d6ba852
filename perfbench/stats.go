package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// method: the smallest sample with at least q·n samples at or below it. It
// never interpolates, so a reported latency is one that was observed.
// xs need not be sorted; it is not modified. NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile with the
// "exclusive" method, matching Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape holds one /metrics exposition.
type scrape []promSample

// parseProm reads the Prometheus text format queued's obs registry writes:
// `name{k="v",...} value` lines, comments skipped.
func parseProm(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: bad line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		head := line[:sp]
		s := promSample{name: head, value: v}
		if i := strings.IndexByte(head, '{'); i >= 0 {
			s.name = head[:i]
			s.labels = map[string]string{}
			for _, kv := range strings.Split(strings.TrimSuffix(head[i+1:], "}"), ",") {
				k, val, ok := strings.Cut(kv, "=")
				if ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every series of name whose labels include all of match
// (alternating key, value).
func (s scrape) sum(name string, match ...string) float64 {
	var t float64
	for _, p := range s {
		if p.name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(match); i += 2 {
			if p.labels[match[i]] != match[i+1] {
				ok = false
				break
			}
		}
		if ok {
			t += p.value
		}
	}
	return t
}

// delta is after.sum − before.sum for one series selection.
func delta(before, after scrape, name string, match ...string) float64 {
	return after.sum(name, match...) - before.sum(name, match...)
}

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two scrapes, interpolating linearly inside the bucket that
// holds the rank (the Prometheus histogram_quantile rule). NaN when the
// histogram gained no observations.
func histQuantile(before, after scrape, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for _, p := range after {
		if p.name != name+"_bucket" {
			continue
		}
		le := p.labels["le"]
		bound := math.Inf(1)
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{bound, p.value - before.sum(name+"_bucket", "le", le)})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return math.NaN()
	}
	rank := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			if b.n == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo
}
