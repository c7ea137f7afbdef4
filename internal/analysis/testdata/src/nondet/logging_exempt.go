package nondet

import (
	"context"
	"log/slog"
	"time"

	"esthera/internal/telemetry"
	tlog "esthera/internal/telemetry/log"
)

// LoggedRound is the approved spelling for in-kernel structured
// logging: a *slog.Logger over the esthera/internal/telemetry/log ring
// handler stamps records internally but writes only its own ring
// buffer, never filter state. Nothing here is flagged.
func LoggedRound(l *slog.Logger, tc telemetry.TraceContext, k int64) {
	if ctx := context.Background(); l.Enabled(ctx, slog.LevelDebug) {
		l.LogAttrs(ctx, slog.LevelDebug, "round", tlog.Trace(tc), slog.Int64("k", k))
	}
}

// LoggedDuration passes a pre-measured duration through a log
// attribute; attribute constructors stay legal.
func LoggedDuration(l *slog.Logger, d time.Duration) {
	l.LogAttrs(context.Background(), slog.LevelInfo, "step", slog.Duration("took", d))
}

// DirectClockBesideLogger shows the sanction does not bleed: a direct
// wall-clock read in kernel code is still flagged even when the result
// only feeds a log attribute.
func DirectClockBesideLogger(l *slog.Logger) {
	start := time.Now() // want `nondeterministic clock read time\.Now`
	l.LogAttrs(context.Background(), slog.LevelInfo, "step",
		slog.Duration("took", time.Since(start))) // want `nondeterministic clock read time\.Since`
}
