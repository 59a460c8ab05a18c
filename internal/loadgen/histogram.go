package loadgen

import (
	"math/bits"
	"time"
)

// histSubBits is the per-power-of-two linear resolution of the histogram:
// 2^histSubBits sub-buckets per octave bounds the relative quantile error
// at 1/2^histSubBits ≈ 1.6% — the HDR-histogram trick, sized for latency
// tracking where values span µs to minutes.
const histSubBits = 6

// histBuckets covers 40 octaves above the linear range — values up to
// 2^46 ns ≈ 19.5 hours; larger samples clamp into the top bucket.
const histBuckets = 41 << histSubBits

// Histogram is an HDR-style latency histogram: fixed-size, allocation-free
// recording at ~1.6% relative resolution. The zero value is ready to use.
// It is not synchronized; the driver's recorder owns one per run and
// serializes access.
type Histogram struct {
	counts [histBuckets]int64
	total  int64
	min    time.Duration
	max    time.Duration
}

// bucketOf maps a duration to its bucket: the top histSubBits bits below
// the leading one select the linear sub-bucket within the value's octave.
func bucketOf(d time.Duration) int {
	v := uint64(d)
	if v < 1<<histSubBits {
		// Values below one full octave of sub-buckets index linearly.
		return int(v)
	}
	exp := bits.Len64(v) - 1 - histSubBits
	idx := (exp+1)<<histSubBits | int(v>>uint(exp))&(1<<histSubBits-1)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketMid returns a representative value for bucket i (the midpoint of
// its range), the value Quantile reports.
func bucketMid(i int) time.Duration {
	if i < 1<<histSubBits {
		return time.Duration(i)
	}
	exp := i>>histSubBits - 1
	base := uint64(1<<histSubBits|i&(1<<histSubBits-1)) << uint(exp)
	return time.Duration(base + 1<<uint(exp)/2)
}

// Record adds one sample.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	if h.total == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.total++
}

// Max returns the largest recorded sample (0 when empty).
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the q-quantile (q ∈ [0,1]) at the histogram's
// resolution; exact recorded min/max anchor the ends. 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			mid := bucketMid(i)
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max
}
