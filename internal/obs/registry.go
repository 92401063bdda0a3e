package obs

import "sync"

// Registry is a named-metric registry. Metric handles are created on first
// use and stable afterwards, so instrumented code resolves its handles once
// and records through pointers — the registry lock is never on a hot path.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	funcs    map[string]func() any // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() any),
	}
}

// Counter returns the named counter, creating it if needed. Returns nil
// (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed. Returns nil on a
// nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed. Returns nil
// on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers a computed metric: fn is invoked at snapshot time
// and its result included verbatim under Values. The result must be
// JSON-marshalable. Re-registering a name replaces the function. No-op on a
// nil registry.
func (r *Registry) RegisterFunc(name string, fn func() any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot is a point-in-time view of every registered metric, shaped for
// JSON. Map iteration feeds sorted keys, and encoding/json sorts map keys
// on marshal, so equal metric states serialize to identical bytes — the
// determinism tests and the BENCH_*.json artifacts rely on that.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Values     map[string]any               `json:"values,omitempty"`
}

// CounterDeltas returns how much each counter grew from prev to s,
// omitting counters that did not move (counters absent from prev count
// from zero). Metric-delta tests use it to assert exactly which counters
// an operation touched without depending on absolute values.
func (s Snapshot) CounterDeltas(prev Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range s.Counters {
		if d := v - prev.Counters[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

// Snapshot captures every metric. Computed metrics (RegisterFunc) are
// evaluated without the registry lock held, so they may themselves read
// instrumented structures.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	fns := make(map[string]func() any, len(r.funcs))
	for name, fn := range r.funcs {
		fns[name] = fn
	}
	r.mu.RUnlock()
	if len(fns) > 0 {
		s.Values = make(map[string]any, len(fns))
		for name, fn := range fns {
			s.Values[name] = fn()
		}
	}
	return s
}
