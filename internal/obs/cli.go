package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// CLI is the observability front end of the command-line tools:
// RegisterFlags defines its flags, Start builds the bundle they ask for,
// Serve publishes it on -obs-addr, and Close tears it all down at exit.
// Nothing is built unless a flag (or the caller) asks for it, so the
// zero-flag path pays nothing.
type CLI struct {
	// The flag values, named after their flags.
	Addr, TraceOut, SLO, AlertsOut, HistoryOut string
	TraceSample                                uint64

	bundle *Bundle
	srv    *Server
	alerts *os.File
}

// RegisterFlags defines -obs-addr, -trace-out, -trace-sample, -slo,
// -alerts and -history-out on fs.
func RegisterFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.StringVar(&c.Addr, "obs-addr", "", "serve live introspection (/metrics, /metrics/history, /alerts, /jobs, expvar, pprof) on this address, e.g. localhost:6060")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write request-lifecycle traces to PATH.json (Chrome trace_event) and PATH.jsonl (span log)")
	fs.Uint64Var(&c.TraceSample, "trace-sample", 64, "trace 1 in N requests, chosen deterministically from -seed (1 = all)")
	fs.StringVar(&c.SLO, "slo", "", "security SLO rules evaluated on the supervision grid, e.g. 'drift_l1>0.15:3' (comma-separated metric>max[:sustain]); process-isolated workers evaluate them on their own grids and forward alerts")
	fs.StringVar(&c.AlertsOut, "alerts", "", "with -slo: write alert transitions as JSONL to this file")
	fs.StringVar(&c.HistoryOut, "history-out", "", "write the metric time-series history as JSON to this file at exit")
	return c
}

// Start builds the bundle the flags ask for: a registry when any obs
// flag is set or always is true, a history for -history-out or
// -obs-addr, an SLO monitor (with its alert log) for -slo, and a tracer
// sampling from seed for -trace-out. It returns nil when nothing asks
// for a registry.
func (c *CLI) Start(seed uint64, always bool) (*Bundle, error) {
	if !always && c.Addr == "" && c.TraceOut == "" && c.SLO == "" && c.HistoryOut == "" {
		return nil, nil
	}
	b := &Bundle{Registry: NewRegistry()}
	c.bundle = b
	if c.HistoryOut != "" || c.Addr != "" {
		b.History = NewHistory(HistoryOpts{})
	}
	if c.SLO != "" {
		rules, err := ParseSLOSpec(c.SLO)
		if err != nil {
			return nil, err
		}
		var sink io.Writer
		if c.AlertsOut != "" {
			if c.alerts, err = os.Create(c.AlertsOut); err != nil {
				return nil, err
			}
			sink = c.alerts
		}
		b.Alerts = NewSLOMonitor(rules, b.Registry, sink)
	}
	if c.TraceOut != "" {
		var err error
		if b.Tracer, err = NewTracer(c.TraceOut, c.TraceSample, seed); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Serve publishes the started bundle through srv on -obs-addr, when
// set, and announces the address on stderr. srv carries the command's
// own additions (Jobs, Faults).
func (c *CLI) Serve(srv *Server) error {
	if c.Addr == "" {
		return nil
	}
	srv.Registry, srv.History, srv.Alerts = c.bundle.Registry, c.bundle.History, c.bundle.Alerts
	addr, err := srv.Serve(c.Addr)
	if err != nil {
		return err
	}
	c.srv = srv
	fmt.Fprintf(os.Stderr, "obs: serving /metrics /metrics/history /alerts /jobs /debug/vars /debug/pprof on http://%s\n", addr)
	return nil
}

// Close shuts the server down (in-flight scrapes get 2 s, then it
// hard-closes), closes the tracer, writes -history-out, and checks and
// closes the alert log. It returns every error it met.
func (c *CLI) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	c.srv.Shutdown(ctx)
	cancel()
	b := c.bundle
	if b == nil {
		return nil
	}
	errs := []error{b.Tracer.Close()}
	if c.HistoryOut != "" {
		errs = append(errs, writeHistory(c.HistoryOut, b.History))
	}
	if c.alerts != nil {
		if err := b.Alerts.SinkErr(); err != nil {
			errs = append(errs, fmt.Errorf("alert log: %w", err))
		}
		errs = append(errs, c.alerts.Close())
	}
	return errors.Join(errs...)
}

// writeHistory dumps the whole time-series store to path.
func writeHistory(path string, hist *History) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err = hist.DumpJSON(f, "", ""); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
