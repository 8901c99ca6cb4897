package obs

import (
	"fmt"
	"io"
	"sort"
)

// Counter is a monotonically increasing int64. Not safe for concurrent use;
// one simulation run owns one Metrics registry.
type Counter struct {
	n int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds d.
func (c *Counter) Add(d int64) { c.n += d }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Gauge is a last-value (or high-water) float64.
type Gauge struct {
	v float64
}

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.v = v }

// SetMax keeps the maximum of the current and given values.
func (g *Gauge) SetMax(v float64) {
	if v > g.v {
		g.v = v
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Metrics is a per-run registry of named counters, gauges and fixed-bucket
// LogHist histograms. Get-or-create lookups are intended for setup paths; hot paths should hold the returned
// pointer.
type Metrics struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	lhists   map[string]*LogHist
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		lhists:   map[string]*LogHist{},
	}
}

// Counter returns the named counter, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// LogHist returns the named log-scale histogram, creating it on first use.
func (m *Metrics) LogHist(name string) *LogHist {
	h := m.lhists[name]
	if h == nil {
		h = &LogHist{}
		m.lhists[name] = h
	}
	return h
}

// Merge folds registry o into m: counters add, histograms merge exactly, and gauges keep the maximum of the two values. The gauge
// rule is a deliberate choice for cross-shard aggregation — every gauge the
// runtime registers is a high-water or last-peak quantity (queue peaks,
// per-client AoI peaks, airtime totals are counters), so max is the only
// order-independent combination that stays meaningful. Merging is
// commutative and associative, so folding shard registries in any order
// yields the same aggregate.
func (m *Metrics) Merge(o *Metrics) {
	if o == nil {
		return
	}
	for name, c := range o.counters {
		m.Counter(name).Add(c.Value())
	}
	for name, g := range o.gauges {
		m.Gauge(name).SetMax(g.Value())
	}
	for name, h := range o.lhists {
		m.LogHist(name).Merge(h)
	}
}

// MetricValue is one entry of a Snapshot.
type MetricValue struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`  // "counter", "gauge" or "loghist"
	Value float64 `json:"value"` // counter/gauge value; histogram sample count
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// Snapshot is a point-in-time view of a registry, sorted by name so its
// rendering (and any diff of two snapshots) is deterministic.
type Snapshot []MetricValue

// Snapshot captures every registered metric, sorted by name.
func (m *Metrics) Snapshot() Snapshot {
	s := make(Snapshot, 0, len(m.counters)+len(m.gauges)+len(m.lhists))
	for name, c := range m.counters {
		s = append(s, MetricValue{Name: name, Kind: "counter", Value: float64(c.Value())})
	}
	for name, g := range m.gauges {
		s = append(s, MetricValue{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, h := range m.lhists {
		mv := MetricValue{Name: name, Kind: "loghist", Value: float64(h.N())}
		if h.N() > 0 {
			mv.P50 = h.Quantile(0.5)
			mv.P95 = h.Quantile(0.95)
			mv.P99 = h.Quantile(0.99)
			mv.Max = float64(h.Max())
		}
		s = append(s, mv)
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
	return s
}

// Get returns the named entry.
func (s Snapshot) Get(name string) (MetricValue, bool) {
	for _, mv := range s {
		if mv.Name == name {
			return mv, true
		}
	}
	return MetricValue{}, false
}

// WriteText renders the snapshot as an aligned table.
func (s Snapshot) WriteText(w io.Writer) {
	width := 0
	for _, mv := range s {
		if len(mv.Name) > width {
			width = len(mv.Name)
		}
	}
	for _, mv := range s {
		switch mv.Kind {
		case "loghist":
			fmt.Fprintf(w, "  %-*s  n=%-8.0f p50=%-10.4g p95=%-10.4g p99=%-10.4g max=%.4g\n",
				width, mv.Name, mv.Value, mv.P50, mv.P95, mv.P99, mv.Max)
		default:
			fmt.Fprintf(w, "  %-*s  %.6g\n", width, mv.Name, mv.Value)
		}
	}
}
