package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// FlightRecorderConfig configures post-mortem capture bundles.
type FlightRecorderConfig struct {
	// Dir is where capture bundles are written (one subdirectory per
	// capture). Required.
	Dir string
	// Tracer, when non-nil, supplies span trees for captures.
	Tracer *Tracer
	// Log receives capture notices; defaults to Nop.
	Log *Logger
	// CPUProfile, when > 0, additionally records a CPU profile of that
	// duration (asynchronously) into the bundle.
	CPUProfile time.Duration
	// MinInterval rate-limits captures. Default 30s.
	MinInterval time.Duration
	// Clock overrides time.Now, for tests.
	Clock func() time.Time
}

// FlightRecorder captures a post-mortem bundle — span tree, goroutine
// dump, optional CPU profile — when something goes wrong (SLO breach,
// job failure). Captures are rate-limited so a failure storm produces
// one bundle, not thousands. A nil *FlightRecorder is a valid no-op.
type FlightRecorder struct {
	cfg      FlightRecorderConfig
	captures *Counter

	mu   sync.Mutex
	last time.Time
	seq  int
}

// NewFlightRecorder creates cfg.Dir and returns the recorder.
func NewFlightRecorder(reg *Registry, cfg FlightRecorderConfig) (*FlightRecorder, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: flight recorder needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: flight recorder dir: %w", err)
	}
	if cfg.Log == nil {
		cfg.Log = Nop()
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = 30 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &FlightRecorder{
		cfg:      cfg,
		captures: reg.Counter("prox_flight_captures_total", "Flight-recorder bundles written.", nil),
	}, nil
}

// flightMeta is the meta.json of a capture bundle.
type flightMeta struct {
	Reason     string    `json:"reason"`
	Trace      string    `json:"trace,omitempty"`
	CapturedAt time.Time `json:"capturedAt"`
	CPUProfile bool      `json:"cpuProfile,omitempty"`
}

// Capture writes a bundle for reason (annotated with trace when
// non-zero) and returns its directory. Rate-limited captures return
// ("", nil). The bundle holds meta.json, goroutines.txt, trace.json
// (the span tree, or all retained traces when no trace id is given) and
// optionally cpu.pprof, completed asynchronously.
func (f *FlightRecorder) Capture(reason string, trace TraceID) (string, error) {
	if f == nil {
		return "", nil
	}
	now := f.cfg.Clock()
	f.mu.Lock()
	if !f.last.IsZero() && now.Sub(f.last) < f.cfg.MinInterval {
		f.mu.Unlock()
		return "", nil
	}
	f.last = now
	f.seq++
	seq := f.seq
	f.mu.Unlock()

	dir := filepath.Join(f.cfg.Dir, fmt.Sprintf("%s-%03d-%s",
		now.UTC().Format("20060102T150405"), seq, sanitizeReason(reason)))
	meta := flightMeta{Reason: reason, CapturedAt: now, CPUProfile: f.cfg.CPUProfile > 0}
	if !trace.IsZero() {
		meta.Trace = trace.String()
	}
	// Build the bundle under a dot-prefixed temporary name and rename it
	// into place, so a reader never sees a half-written bundle.
	tmp, err := os.MkdirTemp(f.cfg.Dir, ".capture-")
	if err != nil {
		return "", err
	}
	if err := f.writeBundle(tmp, meta, trace); err != nil {
		_ = os.RemoveAll(tmp)
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		_ = os.RemoveAll(tmp)
		return "", err
	}

	if f.cfg.CPUProfile > 0 {
		go f.cpuProfile(dir)
	}

	f.captures.Inc()
	f.cfg.Log.Warn("flight recorder capture", "reason", reason, "dir", dir, "trace", meta.Trace)
	return dir, nil
}

// writeBundle writes meta.json, goroutines.txt and trace.json into dir.
func (f *FlightRecorder) writeBundle(dir string, meta flightMeta, trace TraceID) error {
	if err := os.Chmod(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "meta.json"), meta); err != nil {
		return err
	}

	if g, err := os.Create(filepath.Join(dir, "goroutines.txt")); err == nil {
		_ = pprof.Lookup("goroutine").WriteTo(g, 2)
		_ = g.Close()
	}

	if t := f.cfg.Tracer; t != nil {
		if !trace.IsZero() {
			if spans, dropped, ok := t.Spans(trace); ok {
				_ = writeJSON(filepath.Join(dir, "trace.json"), map[string]any{
					"id": trace.String(), "dropped": dropped, "spans": spans,
				})
			}
		} else {
			_ = writeJSON(filepath.Join(dir, "trace.json"), map[string]any{
				"traces": t.Traces(),
			})
		}
	}
	return nil
}

// cpuProfile records a CPU profile into the published bundle dir, under
// a dot-prefixed temporary name renamed to cpu.pprof once complete, so
// a reader never sees a truncated profile. Errors (e.g. another profile
// already running) are logged and dropped — the rest of the bundle is
// already on disk.
func (f *FlightRecorder) cpuProfile(dir string) {
	tmp := filepath.Join(dir, ".cpu.pprof.tmp")
	out, err := os.Create(tmp)
	if err != nil {
		return
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		f.cfg.Log.Debug("flight recorder cpu profile unavailable", "err", err)
		_ = out.Close()
		_ = os.Remove(tmp)
		return
	}
	time.Sleep(f.cfg.CPUProfile)
	pprof.StopCPUProfile()
	if err := out.Close(); err != nil {
		f.cfg.Log.Debug("flight recorder cpu profile write failed", "err", err)
		_ = os.Remove(tmp)
		return
	}
	_ = os.Rename(tmp, filepath.Join(dir, "cpu.pprof"))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sanitizeReason maps a capture reason to a filesystem-safe directory
// component.
func sanitizeReason(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && len(out) < 48; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "capture"
	}
	return string(out)
}
