package cache

import "icost/internal/isa"

// Test-only reference copy of the map-backed TLB the slot arrays
// replaced, kept verbatim in behaviour so the property tests can prove
// the arrays hit, miss and evict exactly as the map did.

// legacyTLB is the former TLB: page -> last-use tick in a map, with a
// scan of the whole map for the oldest tick on every eviction.
type legacyTLB struct {
	pageShift uint
	tags      map[isa.Addr]uint64 // page -> last-use tick
	entries   int
	tick      uint64

	Accesses uint64
	Misses   uint64
}

func newLegacyTLB(entries, pageBytes int) *legacyTLB {
	shift := uint(0)
	for 1<<shift < pageBytes {
		shift++
	}
	return &legacyTLB{pageShift: shift, tags: make(map[isa.Addr]uint64, entries), entries: entries}
}

func (t *legacyTLB) Access(addr isa.Addr) bool {
	t.Accesses++
	page := addr >> t.pageShift
	t.tick++
	if _, ok := t.tags[page]; ok {
		t.tags[page] = t.tick
		return true
	}
	t.Misses++
	if len(t.tags) >= t.entries {
		var oldest isa.Addr
		oldestTick := ^uint64(0)
		for p, tk := range t.tags {
			if tk < oldestTick {
				oldestTick = tk
				oldest = p
			}
		}
		delete(t.tags, oldest)
	}
	t.tags[page] = t.tick
	return false
}
