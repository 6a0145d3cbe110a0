package fu

// Test-only reference copy of the map-backed schedule the ring
// replaced, kept verbatim in behaviour so the property tests can prove
// the ring books every stream exactly as the map did. The map version
// never forgets a cycle, so it also answers streams that ignore the
// ring's retire floor.

// legacySched is the former Sched: per-cycle counts and union-find
// forwarding pointers in two maps keyed by cycle.
type legacySched struct {
	cap  int
	cnt  map[int64]int
	next map[int64]int64
}

func newLegacySched(cap int) *legacySched {
	return &legacySched{cap: cap, cnt: map[int64]int{}, next: map[int64]int64{}}
}

func (s *legacySched) book(ready int64) int64 {
	c := s.find(ready)
	s.cnt[c]++
	if s.cnt[c] >= s.cap {
		s.next[c] = c + 1
	}
	return c
}

// find returns the first cycle >= c with spare capacity.
func (s *legacySched) find(c int64) int64 {
	root := c
	for {
		n, ok := s.next[root]
		if !ok {
			break
		}
		root = n
	}
	// Path compression.
	for c != root {
		n := s.next[c]
		s.next[c] = root
		c = n
	}
	return root
}
