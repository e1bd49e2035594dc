package dynamic

import (
	"errors"
	"fmt"

	"fsim/internal/graph"
)

// ErrLogCompacted is returned by ChangesSince when the requested version
// has been compacted out of the retained change log. A replication client
// receiving it must re-sync from a full snapshot instead of tailing the
// log (the serving layer translates it to 410 Gone).
var ErrLogCompacted = errors.New("dynamic: requested version has been compacted from the change log")

// VersionedChanges is one version step of the retained change log: the
// effective changes whose Apply produced Version from Version-1. Replaying
// the step through Maintainer.Apply on a replica at Version-1 leaves the
// replica at Version with state bit-identical to the leader's (the same
// code path converged the same batch on the same snapshot).
type VersionedChanges struct {
	Version uint64
	Changes []graph.Change
}

// Default retention bounds for RetainChanges(0, 0).
const (
	DefaultRetainVersions = 1024
	DefaultRetainChanges  = 1 << 20
)

// changeLog is the bounded in-memory versioned log. Entries hold
// contiguous ascending versions (every effective Apply bumps the version
// by exactly one and appends exactly one entry); compaction drops from the
// head, so the retained window is always a suffix of the version history.
// Guarded by the owning Maintainer's mutex.
type changeLog struct {
	entries     []VersionedChanges
	changes     int // total Change count across entries
	maxVersions int
	maxChanges  int
}

// append retains one version step, compacting the head to stay inside the
// bounds. A single oversized batch still gets retained (the log would be
// useless otherwise); it just evicts everything older.
func (l *changeLog) append(version uint64, changes []graph.Change) {
	l.entries = append(l.entries, VersionedChanges{Version: version, Changes: changes})
	l.changes += len(changes)
	for len(l.entries) > 1 && (len(l.entries) > l.maxVersions || l.changes > l.maxChanges) {
		l.changes -= len(l.entries[0].Changes)
		l.entries = l.entries[1:]
	}
}

// RetainChanges enables bounded retention of applied change batches, the
// leader side of change-log replication: every effective Apply records its
// effective changes under the version it produced, and ChangesSince serves
// them back to followers. maxVersions bounds the number of retained
// version steps and maxChanges the total retained changes across them;
// whichever bound is hit first compacts the oldest steps. Zero values use
// DefaultRetainVersions / DefaultRetainChanges, negatives are rejected.
//
// Retention starts at the maintainer's current version: a follower behind
// the first retained step gets ErrLogCompacted and must snapshot-sync.
// Calling RetainChanges again re-bounds (and possibly compacts) the
// existing log; it never un-compacts.
func (mt *Maintainer) RetainChanges(maxVersions, maxChanges int) error {
	if maxVersions < 0 || maxChanges < 0 {
		return fmt.Errorf("dynamic: negative change-log retention (%d versions, %d changes)", maxVersions, maxChanges)
	}
	if maxVersions == 0 {
		maxVersions = DefaultRetainVersions
	}
	if maxChanges == 0 {
		maxChanges = DefaultRetainChanges
	}
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if mt.log == nil {
		mt.log = &changeLog{maxVersions: maxVersions, maxChanges: maxChanges}
		return nil
	}
	mt.log.maxVersions, mt.log.maxChanges = maxVersions, maxChanges
	for len(mt.log.entries) > 1 && (len(mt.log.entries) > maxVersions || mt.log.changes > maxChanges) {
		mt.log.changes -= len(mt.log.entries[0].Changes)
		mt.log.entries = mt.log.entries[1:]
	}
	return nil
}

// retainLocked records one applied batch; a no-op unless RetainChanges
// enabled the log. Callers hold the write lock and have already bumped the
// version.
func (mt *Maintainer) retainLocked(changes []graph.Change) {
	if mt.log == nil || len(changes) == 0 {
		return
	}
	mt.log.append(mt.version.Load(), changes)
}

// ChangesSince returns the retained version steps after `from` — the
// batches a replica at version `from` must apply, in order, to reach the
// current version — together with the current version itself.
//
//   - from == current: (nil, current, nil) — the caller is caught up.
//   - from beyond current: an error (the caller's version is from a
//     different history; it should re-sync).
//   - from compacted past (or retention disabled while behind):
//     ErrLogCompacted — the caller must re-sync from a snapshot.
//
// The returned steps are immutable: the log never mutates a retained
// entry, so callers may hold them without copying.
func (mt *Maintainer) ChangesSince(from uint64) ([]VersionedChanges, uint64, error) {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	current := mt.version.Load()
	if from == current {
		return nil, current, nil
	}
	if from > current {
		return nil, current, fmt.Errorf("dynamic: version %d is ahead of the log (current %d)", from, current)
	}
	if mt.log == nil || len(mt.log.entries) == 0 || mt.log.entries[0].Version > from+1 {
		return nil, current, fmt.Errorf("%w (want changes after %d)", ErrLogCompacted, from)
	}
	first := mt.log.entries[0].Version
	steps := mt.log.entries[from+1-first:]
	return append([]VersionedChanges(nil), steps...), current, nil
}

// LogStats reports the retained change log's occupancy for diagnostics
// (the serving layer surfaces it in /stats). Zero values when retention is
// disabled.
type LogStats struct {
	// Versions and Changes are the retained version steps and the total
	// changes across them.
	Versions int
	Changes  int
	// OldestVersion is the earliest retained step's version (0 when the
	// log is empty); followers at OldestVersion-1 or later can tail.
	OldestVersion uint64
}

// LogStats returns the current change-log occupancy.
func (mt *Maintainer) LogStats() LogStats {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	if mt.log == nil || len(mt.log.entries) == 0 {
		return LogStats{}
	}
	return LogStats{
		Versions:      len(mt.log.entries),
		Changes:       mt.log.changes,
		OldestVersion: mt.log.entries[0].Version,
	}
}
