package obs

import "math/bits"

// LogHist is a fixed-bucket log-scale histogram for non-negative integer
// samples (latencies in µs, depths, counts). The layout is HdrHistogram-like:
// values below 8 get exact unit buckets; above that each power-of-two range
// splits into 8 sub-buckets, bounding the relative quantile error at 12.5%.
// The whole struct is a flat array — Record never allocates, and Merge is an
// exact elementwise sum, so parallel shards can histogram independently and
// merge without losing anything.
type LogHist struct {
	counts [lhBuckets]int64
	n      int64
	min    int64
	max    int64
}

// lhBuckets covers every int64: exponents 3..62, 8 sub-buckets each, plus the
// 8 unit buckets — index (exp-2)*8 + (mantissa-8) peaks at 487 for MaxInt64.
const lhBuckets = 488

// lhIndex maps a sample to its bucket. Negative samples clamp to bucket 0.
func lhIndex(v int64) int {
	if v < 8 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	mantissa := v >> (uint(exp) - 3) // in [8, 15]
	return (exp-2)*8 + int(mantissa-8)
}

// lhLow returns the lowest sample value mapping to bucket idx (MaxInt64 past
// the last bucket, so the top bucket's upper edge never overflows).
func lhLow(idx int) int64 {
	if idx < 16 {
		return int64(idx)
	}
	if idx >= lhBuckets {
		return 1<<63 - 1
	}
	exp := idx/8 + 2
	mantissa := int64(idx%8 + 8)
	return mantissa << (uint(exp) - 3)
}

// Record adds one sample. Zero allocations; not safe for concurrent use —
// each shard records into its own LogHist and merges afterwards.
func (h *LogHist) Record(v int64) {
	h.counts[lhIndex(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
}

// N returns the sample count.
func (h *LogHist) N() int64 { return h.n }

// Max returns the largest recorded sample (0 when empty).
func (h *LogHist) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (q in [0,1]), interpolated
// within the winning bucket and clamped to the exact observed min/max.
func (h *LogHist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	cum := float64(0)
	for i := 0; i < lhBuckets; i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		cum += float64(c)
		if cum >= rank {
			low, high := float64(lhLow(i)), float64(lhLow(i+1))
			frac := (rank - (cum - float64(c))) / float64(c)
			v := low + frac*(high-low)
			if v < float64(h.min) {
				v = float64(h.min)
			}
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
	}
	return float64(h.max)
}

// Merge folds o into h exactly: counts, totals and extremes all combine
// losslessly, so sharded recording reproduces the single-shard histogram.
func (h *LogHist) Merge(o *LogHist) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
}
