package engine

import (
	"container/list"
	"sync"

	"icost/internal/window"
)

// logBudget bounds the block logs the engine holds, in bytes. A log
// costs about 3.3 bytes per timed instruction, in 64 KiB chunks: a
// default 30k-instruction session's is two chunks, so eight of them
// (one engine's default session store) take 1 MiB, while a
// 300k-instruction session's takes 1 MiB alone. 1.5 MiB holds all
// eight of the first, and one of the second at a time, which is what
// the long-trace study needs: a session's misses come mostly right
// after its build.
const logBudget = 3 << 19

// logStore holds the engine's block logs, one per session at most,
// under logBudget, evicting the least recently used. A session whose
// log is held replays it on a memo miss instead of regenerating and
// re-simulating its stream; any other pass simulates and records a new
// log (put). The newest log is held even when it alone exceeds the
// budget. A log is never recycled: a replay reading an evicted log
// finishes on it, and the log then falls to the garbage collector.
type logStore struct {
	mu    sync.Mutex
	logs  map[string]*list.Element // -> *heldLog
	lru   list.List                // front = most recently used
	bytes int64

	// onReplay, when set (tests), runs after acquire has found a log,
	// before the replay folds it.
	onReplay func()
}

// heldLog is a complete log and the session key whose pass recorded
// it.
type heldLog struct {
	key string
	log *window.Log
}

// put holds a pass's complete log as key's, replacing any it held,
// and evicts the least recently used others while the total exceeds
// logBudget. An incomplete (abandoned) recording is dropped.
func (ls *logStore) put(key string, log *window.Log) {
	if ls == nil || log == nil || !log.Complete() {
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.dropLocked(key)
	if ls.logs == nil {
		ls.logs = map[string]*list.Element{}
	}
	ls.logs[key] = ls.lru.PushFront(&heldLog{key: key, log: log})
	ls.bytes += log.Bytes()
	for ls.bytes > logBudget && ls.lru.Len() > 1 {
		ls.dropLocked(ls.lru.Back().Value.(*heldLog).key)
	}
}

// acquire returns key's held log, most recently used now, or nil. A
// complete log is immutable, so the caller may read it for as long as
// it likes: eviction only unlinks it.
func (ls *logStore) acquire(key string) *window.Log {
	if ls == nil {
		return nil
	}
	ls.mu.Lock()
	el, ok := ls.logs[key]
	if !ok {
		ls.mu.Unlock()
		return nil
	}
	ls.lru.MoveToFront(el)
	hook := ls.onReplay
	ls.mu.Unlock()
	if hook != nil {
		hook()
	}
	return el.Value.(*heldLog).log
}

// drop forgets key's log: its session left the store.
func (ls *logStore) drop(key string) {
	ls.mu.Lock()
	ls.dropLocked(key)
	ls.mu.Unlock()
}

func (ls *logStore) dropLocked(key string) {
	if el, ok := ls.logs[key]; ok {
		ls.bytes -= el.Value.(*heldLog).log.Bytes()
		ls.lru.Remove(el)
		delete(ls.logs, key)
	}
}

// total is the memory the held logs occupy.
func (ls *logStore) total() int64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.bytes
}
