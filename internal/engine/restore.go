package engine

import (
	"errors"

	"rfipad/internal/obs"
	"rfipad/internal/supervise"
)

// restoreCounters is the labeled checkpoint_restore_total family: one
// counter per restore outcome, so recovery behavior is observable on
// /metrics instead of only in logs.
type restoreCounters struct {
	// restored counts checkpoints that loaded, validated, and rebuilt a
	// stream.
	restored *obs.Counter
	// stale counts checkpoints rejected by the staleness bound.
	stale *obs.Counter
	// corrupt counts undecodable or unusable checkpoints (bad bytes,
	// version skew, or a payload the restore rejected).
	corrupt *obs.Counter
	// missing counts restore attempts with no checkpoint on disk.
	missing *obs.Counter
}

func newRestoreCounters(reg *obs.Registry) restoreCounters {
	const name = "checkpoint_restore_total"
	const help = "Checkpoint restore attempts by outcome."
	return restoreCounters{
		restored: reg.Counter(name, help, obs.L("outcome", "restored")),
		stale:    reg.Counter(name, help, obs.L("outcome", "stale")),
		corrupt:  reg.Counter(name, help, obs.L("outcome", "corrupt")),
		missing:  reg.Counter(name, help, obs.L("outcome", "missing")),
	}
}

// observeLoad classifies a Store.LoadFresh error. A nil error is NOT
// counted here — the caller counts restored only after the restore
// itself succeeds (a loaded-but-unusable payload counts as corrupt).
func (rc restoreCounters) observeLoad(err error) {
	switch {
	case err == nil:
	case errors.Is(err, supervise.ErrNoCheckpoint):
		rc.missing.Inc()
	case errors.Is(err, supervise.ErrStale):
		rc.stale.Inc()
	default:
		rc.corrupt.Inc()
	}
}
