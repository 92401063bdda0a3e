package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
)

// Collector is the handle instrumented subsystems record through: a metric
// registry plus an optional structured-log event sink. A nil *Collector is
// a fully valid no-op, and so are the handles it returns (see the package
// comment).
type Collector struct {
	reg    *Registry
	logger atomic.Pointer[slog.Logger]
	tracer atomic.Pointer[Tracer]
}

// NewCollector creates a collector with a fresh registry and no log sink.
func NewCollector() *Collector {
	return &Collector{reg: NewRegistry()}
}

// Counter resolves a named counter; nil (no-op) on a nil collector.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	return c.reg.Counter(name)
}

// Gauge resolves a named gauge; nil (no-op) on a nil collector.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	return c.reg.Gauge(name)
}

// Histogram resolves a named histogram; nil (no-op) on a nil collector.
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	return c.reg.Histogram(name)
}

// RegisterFunc registers a computed metric; no-op on a nil collector.
func (c *Collector) RegisterFunc(name string, fn func() any) {
	if c == nil {
		return
	}
	c.reg.RegisterFunc(name, fn)
}

// SetLogger attaches a structured-log sink for Event calls. A nil logger
// detaches the sink. No-op on a nil collector.
func (c *Collector) SetLogger(l *slog.Logger) {
	if c == nil {
		return
	}
	c.logger.Store(l)
}

// DiscardLogger returns a logger whose handler is enabled for no level,
// so a call through it formats nothing: the "no log" logger. (Go 1.24's
// slog.DiscardHandler is the same thing; the module targets Go 1.22.)
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// SetTracer attaches a per-query tracer; a nil tracer detaches it.
// No-op on a nil collector.
func (c *Collector) SetTracer(t *Tracer) {
	if c == nil {
		return
	}
	c.tracer.Store(t)
}

// Tracer returns the attached tracer, or nil.
func (c *Collector) Tracer() *Tracer {
	if c == nil {
		return nil
	}
	return c.tracer.Load()
}

// StartTrace starts a sampled root span through the attached tracer.
// Returns nil — a valid no-op span — on a nil collector, with no tracer
// attached, or when the call is not sampled, so the traced-off fast path
// is one atomic load plus one nil check and allocates nothing.
func (c *Collector) StartTrace(name string) *Span {
	if c == nil {
		return nil
	}
	return c.tracer.Load().Start(name)
}

// Event emits one structured log record at Info level if a sink is
// attached; otherwise it is free. args are slog key/value pairs.
func (c *Collector) Event(msg string, args ...any) {
	if c == nil {
		return
	}
	if l := c.logger.Load(); l != nil {
		l.LogAttrs(context.Background(), slog.LevelInfo, msg, argsToAttrs(args)...)
	}
}

func argsToAttrs(args []any) []slog.Attr {
	if len(args) == 0 {
		return nil
	}
	attrs := make([]slog.Attr, 0, len(args)/2)
	for i := 0; i+1 < len(args); i += 2 {
		key, ok := args[i].(string)
		if !ok {
			key = "!BADKEY"
		}
		attrs = append(attrs, slog.Any(key, args[i+1]))
	}
	return attrs
}

// Snapshot captures every metric of the collector's registry; the zero
// Snapshot on a nil collector.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return c.reg.Snapshot()
}
