// Package obs is the live-observability core: a dependency-free
// metrics registry with Prometheus text exposition, a per-round phase
// profiler, and the Observer — the sink that turns the engine's event
// stream (internal/trace) into metrics, the /debug/sched view of
// recent decisions and the flight recorder's snapshots — behind an
// opt-in HTTP introspection surface (/metrics, /healthz,
// /debug/sched).
//
// The package imports only the stream's record type and its leaf
// dependencies, so it sits below every instrumented layer without
// cycles. All Observer methods are nil-receiver safe: an
// uninstrumented run passes a nil *Observer and pays only a nil check
// per call site, and instrumentation never feeds back into simulation
// state, so a fixed-seed run is byte-identical with observability on
// or off.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Safe for concurrent use: simulation threads
// update series while an HTTP handler scrapes.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name, help string
	typ        metricType
	labels     []string
	buckets    []float64 // histogramType only

	mu     sync.Mutex
	series map[string]*series

	// sample, when set, is the family's only source of series: it
	// reports them at scrape time, in label-value order.
	sample func(emit func(labelVal string, v float64))
}

type series struct {
	mu        sync.Mutex
	labelVals []string

	val float64 // counter / gauge

	counts []uint64 // histogram: cumulative per bucket excl. +Inf
	sum    float64
	n      uint64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, typ metricType, buckets []float64, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with different type or labels", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		series: make(map[string]*series),
	}
	if typ == histogramType {
		f.buckets = append([]float64(nil), buckets...)
		sort.Float64s(f.buckets)
	}
	r.families[name] = f
	return f
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelVals: append([]string(nil), vals...)}
		if f.typ == histogramType {
			s.counts = make([]uint64, len(f.buckets))
		}
		f.series[key] = s
	}
	return s
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, counterType, nil, labels)}
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, gaugeType, nil, labels)}
}

// Histogram registers (or fetches) a histogram family with the given
// upper bucket bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, histogramType, buckets, labels)}
}

// SampledGauge registers a single-label gauge family whose series are
// not stored but sampled at scrape time: sample reports each (label
// value, value) pair, in label-value order, from state its owner
// refreshes wholesale — one slice a round instead of a series lookup
// per label value.
func (r *Registry) SampledGauge(name, help, label string, sample func(emit func(labelVal string, v float64))) {
	r.family(name, help, gaugeType, nil, []string{label}).sample = sample
}

// Value reads one stored counter or gauge series by family name and
// label values, for tests and harness assertions; 0 when absent.
func (r *Registry) Value(name string, labelVals ...string) float64 {
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil {
		return 0
	}
	f.mu.Lock()
	s := f.series[strings.Join(labelVals, "\x00")]
	f.mu.Unlock()
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.val
}

// Counter is one counter series.
type Counter struct{ s *series }

// Gauge is one gauge series.
type Gauge struct{ s *series }

// Histogram is one histogram series.
type Histogram struct {
	s       *series
	buckets []float64
}

// With resolves one series; creating it (at zero) if absent.
func (v *CounterVec) With(vals ...string) *Counter { return &Counter{v.f.get(vals)} }

// With resolves one series; creating it (at zero) if absent.
func (v *GaugeVec) With(vals ...string) *Gauge { return &Gauge{v.f.get(vals)} }

// With resolves one series; creating it (at zero) if absent.
func (v *HistogramVec) With(vals ...string) *Histogram {
	return &Histogram{v.f.get(vals), v.f.buckets}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters
// are monotone).
func (c *Counter) Add(d float64) {
	if d < 0 {
		return
	}
	c.s.mu.Lock()
	c.s.val += d
	c.s.mu.Unlock()
}

// Value reads the counter (for tests).
func (c *Counter) Value() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.val
}

// Set assigns the gauge.
func (g *Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.val = v
	g.s.mu.Unlock()
}

// Add shifts the gauge.
func (g *Gauge) Add(d float64) {
	g.s.mu.Lock()
	g.s.val += d
	g.s.mu.Unlock()
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.s.mu.Lock()
	for i, ub := range h.buckets {
		if v <= ub {
			h.s.counts[i]++
		}
	}
	h.s.sum += v
	h.s.n++
	h.s.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.n
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return h.s.sum
}

// WritePrometheus renders every family in text exposition format
// (version 0.0.4). Families are emitted in name order and series in
// label-value order, so output is deterministic for a fixed state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	srs := make([]*series, 0, len(keys))
	for _, k := range keys {
		srs = append(srs, f.series[k])
	}
	f.mu.Unlock()

	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	if f.sample != nil {
		f.sample(func(lv string, v float64) {
			b.WriteString(f.name)
			writeLabels(b, f.labels, []string{lv}, "", "")
			b.WriteByte(' ')
			b.WriteString(formatFloat(v))
			b.WriteByte('\n')
		})
	}
	for _, s := range srs {
		s.mu.Lock()
		switch f.typ {
		case histogramType:
			for i, ub := range f.buckets {
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(b, f.labels, s.labelVals, "le", formatFloat(ub))
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(s.counts[i], 10))
				b.WriteByte('\n')
			}
			b.WriteString(f.name)
			b.WriteString("_bucket")
			writeLabels(b, f.labels, s.labelVals, "le", "+Inf")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(s.n, 10))
			b.WriteByte('\n')
			b.WriteString(f.name)
			b.WriteString("_sum")
			writeLabels(b, f.labels, s.labelVals, "", "")
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.sum))
			b.WriteByte('\n')
			b.WriteString(f.name)
			b.WriteString("_count")
			writeLabels(b, f.labels, s.labelVals, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(s.n, 10))
			b.WriteByte('\n')
		default:
			b.WriteString(f.name)
			writeLabels(b, f.labels, s.labelVals, "", "")
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.val))
			b.WriteByte('\n')
		}
		s.mu.Unlock()
	}
}

// writeLabels renders {k="v",...}; extraK/extraV append one more pair
// (used for histogram le). Nothing is written when there are no pairs.
func writeLabels(b *strings.Builder, keys, vals []string, extraK, extraV string) {
	if len(keys) == 0 && extraK == "" {
		return
	}
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraV))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
