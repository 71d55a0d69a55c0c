package obs

import (
	"fmt"
	"log/slog"
	"os"
	"strings"
)

// Log output formats.
const (
	FormatText = "text"
	FormatJSON = "json"
)

// LogOptions configures NewLogger.
type LogOptions struct {
	// Format is FormatText or FormatJSON (default text).
	Format string
	// Level is the minimum level (default slog.LevelInfo).
	Level slog.Leveler
}

// NewLogger builds the shared structured logger both daemons use:
// slog with a component/field convention instead of ad-hoc stderr
// prints. It writes to stderr, keeping stdout clean for recognition
// output. Attach a component with Component before handing the logger
// to a subsystem.
func NewLogger(opts LogOptions) *slog.Logger {
	h := &slog.HandlerOptions{Level: opts.Level}
	switch strings.ToLower(opts.Format) {
	case FormatJSON:
		return slog.New(slog.NewJSONHandler(os.Stderr, h))
	default:
		return slog.New(slog.NewTextHandler(os.Stderr, h))
	}
}

// Component tags a logger with the shared component attribute
// ("session", "live", "readerd", ...). Nil-safe: a nil logger stays
// nil, and callers should treat a nil logger as disabled.
func Component(l *slog.Logger, name string) *slog.Logger {
	if l == nil {
		return nil
	}
	return l.With(slog.String("component", name))
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
}
