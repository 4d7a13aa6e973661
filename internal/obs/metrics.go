package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics: instruments a subsystem updates as it
// works (counters, histograms) and func collectors read at export time
// from records the subsystem already keeps. Registration is idempotent by
// name — a re-registration returns the existing instrument (or replaces
// the func), so a fresh Session over a long-lived registry keeps counting
// into the same instrument series. A nil *Registry disables every call.
//
// Naming scheme (see DESIGN.md "Observability"): vmn_<subsystem>_<what>
// with _total for counters and _seconds for time histograms, Prometheus
// base units throughout.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	funcs    map[string]func() float64
	cfuncs   map[string]func() int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() float64{},
		cfuncs:   map[string]func() int64{},
	}
}

// Counter is a monotonically increasing value. Nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed buckets (cumulative on export,
// like Prometheus: bucket i counts observations ≤ Bounds[i], plus an
// implicit +Inf bucket) and tracks sum and count. Nil-safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// LatencyBuckets are the default solve/apply latency bounds, in seconds
// (100µs .. 10s, roughly ×2.5 per step).
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// FractionBuckets suit ratios in [0, 1] (dirty fraction, hit rates).
var FractionBuckets = []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

// SizeBuckets suit small cardinalities (class sizes, group sizes).
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// Counter returns (registering on first use) the named counter. Nil
// registries return nil, which absorbs calls.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket upper bounds (must be sorted ascending; ignored when
// the name is already registered).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers a gauge collected by calling fn at export time —
// the zero-hot-path-cost pattern for values a subsystem already tracks
// (cache hit counts, solver statistics). Re-registration replaces fn, so
// the latest verifier owns the series. Exports call fn under the registry
// lock: it must read a value, never wait on work in flight.
func (r *Registry) RegisterFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// RegisterCounterFunc is RegisterFunc for a monotonic count the
// subsystem already keeps as its own record: it exports as a counter
// (integer-valued) with no second copy to keep in sync. A re-registering
// owner restarts the series, which scrapers read as a counter reset.
func (r *Registry) RegisterCounterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cfuncs[name] = fn
	r.mu.Unlock()
}

// Snapshot flattens every metric into a sorted-key map: counters by
// name, func collectors evaluated now, histograms expanded to
// name_le_<bound> cumulative buckets plus name_sum / name_count.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64)
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, fn := range r.funcs {
		out[name] = fn()
	}
	for name, fn := range r.cfuncs {
		out[name] = float64(fn())
	}
	for name, h := range r.hists {
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			out[name+"_le_"+formatBound(b)] = float64(cum)
		}
		out[name+"_sum"] = math.Float64frombits(h.sum.Load())
		out[name+"_count"] = float64(h.count.Load())
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (counter/gauge/histogram types declared; RegisterFunc collectors
// are gauges, RegisterCounterFunc collectors counters).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	add := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	for name, c := range r.counters {
		add("# TYPE %s counter\n%s %d\n", name, name, c.Value())
	}
	for name, fn := range r.funcs {
		add("# TYPE %s gauge\n%s %s\n", name, name, formatValue(fn()))
	}
	for name, fn := range r.cfuncs {
		add("# TYPE %s counter\n%s %d\n", name, name, fn())
	}
	for name, h := range r.hists {
		var b []byte
		b = append(b, "# TYPE "+name+" histogram\n"...)
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			b = append(b, fmt.Sprintf("%s_bucket{le=%q} %d\n", name, formatBound(bound), cum)...)
		}
		cum += h.counts[len(h.bounds)].Load()
		b = append(b, fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d\n", name, cum)...)
		b = append(b, fmt.Sprintf("%s_sum %s\n", name, formatValue(math.Float64frombits(h.sum.Load())))...)
		b = append(b, fmt.Sprintf("%s_count %d\n", name, h.count.Load())...)
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := io.WriteString(w, l); err != nil {
			return err
		}
	}
	return nil
}

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
