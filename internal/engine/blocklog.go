package engine

import (
	"sync"

	"icost/internal/window"
)

// logSlot is the engine's one block log: the recording of the newest
// windowed build's pass, which that session's later passes replay
// instead of regenerating and re-simulating its stream. One slot, not
// one log per session: a log costs about 3.3 bytes per instruction,
// and eight resident 300k-instruction sessions holding one each more
// than doubled long-trace's peak RSS, while a session's misses come
// mostly right after its build.
//
// A build takes the slot before it records (take), so the held log
// changes hands build by build. A replay holds its own reference
// (acquire/release): the log it reads is never recycled under it, and
// a build that finds the held log still read records into a fresh
// one. A session whose log is gone re-simulates, as does a restored
// one — snapshots carry no logs.
type logSlot struct {
	mu   sync.Mutex
	held *heldLog // nil when no log is held

	// onReplay, when set (tests), runs with a replay's reference held,
	// before it folds.
	onReplay func()
}

// heldLog is a complete log and the session key whose build recorded
// it.
type heldLog struct {
	key     string
	log     *window.Log
	readers int // replays reading log; guarded by logSlot.mu
}

// take empties the slot for a build about to record, and returns the
// log to record into: the dropped log, whose chunks the recording
// reuses, when no replay reads it; else a fresh one. A nil slot (a
// build outside an engine) records nothing.
func (sl *logSlot) take() *window.Log {
	if sl == nil {
		return nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	h := sl.held
	sl.held = nil
	if h != nil && h.readers == 0 {
		return h.log
	}
	return new(window.Log)
}

// put publishes a build's complete log as the held one; an incomplete
// (abandoned or failed) recording leaves the slot empty.
func (sl *logSlot) put(key string, log *window.Log) {
	if sl == nil || log == nil || !log.Complete() {
		return
	}
	sl.mu.Lock()
	sl.held = &heldLog{key: key, log: log}
	sl.mu.Unlock()
}

// acquire returns the held log if the session key recorded it, with a
// reference the caller must release; nil otherwise.
func (sl *logSlot) acquire(key string) *heldLog {
	if sl == nil {
		return nil
	}
	sl.mu.Lock()
	h := sl.held
	if h == nil || h.key != key {
		sl.mu.Unlock()
		return nil
	}
	h.readers++
	hook := sl.onReplay
	sl.mu.Unlock()
	if hook != nil {
		hook()
	}
	return h
}

// release drops a replay's reference.
func (sl *logSlot) release(h *heldLog) {
	sl.mu.Lock()
	h.readers--
	sl.mu.Unlock()
}

// bytes is the memory the held log occupies.
func (sl *logSlot) bytes() int64 {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.held == nil {
		return 0
	}
	return sl.held.log.Bytes()
}
