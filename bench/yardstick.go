package main

import (
	"math"
	"math/rand"
	"time"
)

// The host this benchmark runs on changes speed by tens of percent within
// seconds and drifts by as much over minutes: other tenants share its cores,
// caches and memory bandwidth. Raw timings taken minutes apart therefore
// move more than the regressions the bounds must catch.
//
// The yardstick is a fixed reference computation in the benchmark's own
// code, which later changes to the simulator cannot alter. Untraced runs
// interleave short yardstick slices with slices of simulated time, and each
// host time is divided by how much slower than its reference the yardstick
// slice just before it ran: the reported value is what the round would have
// taken on the host while it ran the yardstick at reference speed.
//
// It mimics the simulator's event loop: a binary-heap event queue and
// per-event interference sums with a logarithm over a gain matrix a few
// times larger than the L2 cache. It allocates nothing, so it neither pays
// for the simulator's garbage through GC assists nor leaves any behind.
type yardstick struct {
	gain [][]float64
	q    []ysEvent
	rng  *rand.Rand
	sink float64
}

type ysEvent struct {
	at   float64
	node int
}

const ysNodes = 512

// ysSliceEvents is the yardstick work interleaved before each slice of
// simulated time, and refSliceSeconds its reference wall time: the median
// over 8,704 slices on the 2-core x86-64 sandbox the benchmark was defined
// on.
const (
	ysSliceEvents   = 20_000
	refSliceSeconds = 0.006
)

func newYardstick() *yardstick {
	y := &yardstick{rng: rand.New(rand.NewSource(1)), gain: make([][]float64, ysNodes)}
	for i := range y.gain {
		y.gain[i] = make([]float64, ysNodes)
		for j := range y.gain[i] {
			y.gain[i][j] = math.Pow(10, (-60-30*y.rng.Float64())/10)
		}
	}
	for i := 0; i < 4*ysNodes; i++ {
		y.push(ysEvent{at: y.rng.ExpFloat64(), node: y.rng.Intn(ysNodes)})
	}
	return y
}

// slice runs one slice of yardstick work and returns its wall time.
func (y *yardstick) slice() time.Duration {
	t0 := time.Now()
	for n := 0; n < ysSliceEvents; n++ {
		e := y.pop()
		row := y.gain[e.node]
		var interference float64
		for j := e.node % 3; j < ysNodes; j += 3 {
			interference += row[j]
		}
		y.sink += 10 * math.Log10(row[(e.node+1)%ysNodes]/(interference+1e-12))
		y.push(ysEvent{at: e.at + y.rng.ExpFloat64(), node: y.rng.Intn(ysNodes)})
	}
	return time.Since(t0)
}

func (y *yardstick) push(e ysEvent) {
	y.q = append(y.q, e)
	for i := len(y.q) - 1; i > 0; {
		p := (i - 1) / 2
		if y.q[p].at <= y.q[i].at {
			break
		}
		y.q[p], y.q[i] = y.q[i], y.q[p]
		i = p
	}
}

func (y *yardstick) pop() ysEvent {
	q := y.q
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(q) && q[l].at < q[m].at {
			m = l
		}
		if r < len(q) && q[r].at < q[m].at {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	y.q = q
	return top
}
