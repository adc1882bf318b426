package main

import (
	"slices"
)

// percentileLadder lists the percentiles a timing may be reported at, in
// hundredths of a percent.
var percentileLadder = []int{5000, 9000, 9500, 9900, 9990, 9999}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// rank returns the 1-based nearest-rank position of percentile p (in
// hundredths of a percent) among n samples.
func rank(p, n int) int {
	k := (p*n + 9999) / 10000
	if k < 1 {
		k = 1
	}
	return k
}

// highestPercentile returns the highest percentile of the ladder (in
// hundredths of a percent) that leaves at least minTail of n samples
// beyond it, or 0 when even the median does not.
func highestPercentile(n int) int {
	best := 0
	for _, p := range percentileLadder {
		if n-rank(p, n) >= minTail {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank percentile p (in hundredths of a
// percent) of the samples; it sorts a copy.
func percentile(samples []float64, p int) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[rank(p, len(s))-1]
}

// median returns the middle sample (the mean of the middle two for an
// even count).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// peerUnitsPerSec is simulated peer-time per host second: n peers over a
// simulated span, divided by the host seconds it took.
func peerUnitsPerSec(n int, span, secs float64) float64 {
	return float64(n) * span / secs
}

// nsPerEvent is host nanoseconds per fired simulation event.
func nsPerEvent(secs float64, events uint64) float64 {
	return secs * 1e9 / float64(events)
}

// perPeerUnit normalises a count by n peers over a simulated span.
func perPeerUnit(count uint64, n int, span float64) float64 {
	return float64(count) / (float64(n) * span)
}
