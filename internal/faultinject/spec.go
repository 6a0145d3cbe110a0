package faultinject

// Fault-spec parsing for plans armed from a flag (icostd -faults).
// The grammar is a comma-separated list of rules:
//
//	point:action[*count][@after][%prob]
//
// where point is a Point name (see Points), action is one of
//
//	err         return an injected error
//	lat=<dur>   sleep <dur> (a time.ParseDuration string), honoring ctx
//	cancel      cancel the registered request context
//
// and the optional modifiers bound the rule: *count fires it at most
// count times, @after skips the first after hits, %prob fires it with
// the given probability in (0,1]. Examples:
//
//	engine.build:err*1            fail the first session build
//	icostd.query:lat=50ms%0.1     delay 10% of queries by 50ms
//	router.forward:lat=40ms%0.05  make 5% of proxied requests slow
//
// Unknown points are refused loudly — arming nothing silently would
// turn a typo into a chaos drill that tested the happy path.

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// SpecError is the typed failure for fault-spec parsing: Rule carries
// the offending rule text (empty for spec-level failures) and Detail
// says what was wrong. Callers that build specs programmatically can
// errors.As it apart from other failures.
type SpecError struct {
	Rule   string
	Detail string
}

func (e *SpecError) Error() string {
	if e.Rule == "" {
		return "fault spec: " + e.Detail
	}
	return fmt.Sprintf("fault spec rule %q: %s", e.Rule, e.Detail)
}

// ParseSpec parses a fault-spec flag value into injection rules.
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, &SpecError{Detail: "empty fault spec"}
	}
	return rules, nil
}

func parseRule(s string) (Rule, error) {
	var r Rule
	bad := func(format string, args ...any) (Rule, error) {
		return Rule{}, &SpecError{Rule: s, Detail: fmt.Sprintf(format, args...)}
	}
	point, rest, ok := strings.Cut(s, ":")
	if !ok {
		return bad("missing ':' between point and action")
	}
	pt := Point(point)
	if !knownPoint(pt) {
		return bad("unknown point %q (known: %s)", point, pointList())
	}
	r.Point = pt

	// Peel modifiers off the tail in any order: %prob, @after, *count.
	// None of the modifier characters appear in the actions themselves
	// (durations spell out units), so a rightmost scan is unambiguous.
	// A repeated modifier is refused rather than letting one copy
	// silently shadow the other.
	action := rest
	seen := map[byte]bool{}
	for {
		i := strings.LastIndexAny(action, "*@%")
		if i < 0 {
			break
		}
		mod, val := action[i], action[i+1:]
		if seen[mod] {
			return bad("duplicate %c modifier", mod)
		}
		seen[mod] = true
		switch mod {
		case '%':
			// The comparison is written positively so NaN (which fails
			// every ordering) cannot sneak past a <=0 || >1 rejection.
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || !(p > 0 && p <= 1) {
				return bad("bad probability %q (want (0,1])", val)
			}
			r.Prob = p
		case '@':
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return bad("bad @after %q (want an integer >= 0)", val)
			}
			r.After = n
		case '*':
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return bad("bad *count %q (want an integer >= 1)", val)
			}
			r.Count = n
		}
		action = action[:i]
	}

	switch {
	case action == "err":
		r.Err = fmt.Errorf("faultinject: injected fault at %s", point)
	case action == "cancel":
		r.Cancel = true
	case strings.HasPrefix(action, "lat="):
		d, err := time.ParseDuration(action[len("lat="):])
		if err != nil || d <= 0 {
			return bad("bad latency %q", action)
		}
		r.Latency = d
	default:
		return bad("unknown action %q (want err, lat=<dur> or cancel)", action)
	}
	return r, nil
}

func knownPoint(pt Point) bool {
	for _, p := range Points() {
		if p == pt {
			return true
		}
	}
	return false
}

func pointList() string {
	pts := Points()
	names := make([]string, len(pts))
	for i, p := range pts {
		names[i] = string(p)
	}
	return strings.Join(names, ", ")
}
