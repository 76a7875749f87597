package scbr

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The reference model of the compiled filters in filter.go: covering and
// matching on name-sorted string predicates, as the index computed them
// before it interned attribute names.

// nameVal is one attribute of a nameView.
type nameVal struct {
	attr string
	val  float64
}

// nameView is an event's attributes sorted by name.
type nameView []nameVal

// viewOf flattens an event's attribute map into sorted form.
func viewOf(e Event) nameView {
	ev := make(nameView, 0, len(e.Attrs))
	for a, v := range e.Attrs {
		ev = append(ev, nameVal{attr: a, val: v})
	}
	sort.Slice(ev, func(i, j int) bool { return ev[i].attr < ev[j].attr })
	return ev
}

// matchesView is Matches against the sorted view; results are identical.
func (s Subscription) matchesView(ev nameView) bool {
	j := 0
	for i := range s.Preds {
		p := &s.Preds[i]
		for j < len(ev) && ev[j].attr < p.Attr {
			j++
		}
		if j >= len(ev) || ev[j].attr != p.Attr || !p.Interval.Contains(ev[j].val) {
			return false
		}
	}
	return true
}

// Covers reports whether s is at least as general as other: every event
// matching other also matches s. For conjunctive interval filters this
// holds iff for every predicate of s, other constrains the same attribute
// with an interval contained in s's. Both predicate lists are in canonical
// sorted order, so the check is a single linear merge.
func (s Subscription) Covers(other Subscription) bool {
	j := 0
	for i := range s.Preds {
		p := &s.Preds[i]
		for j < len(other.Preds) && other.Preds[j].Attr < p.Attr {
			j++
		}
		if j < len(other.Preds) && other.Preds[j].Attr == p.Attr {
			if !p.Interval.Covers(other.Preds[j].Interval) {
				return false
			}
			continue
		}
		// other is unconstrained on this attribute: it admits values
		// outside p unless p admits everything.
		if !p.Interval.Covers(FullRange()) {
			return false
		}
	}
	return true
}

// refAttrs is the attribute pool of the random filters: few enough names
// that pairs share, miss and duplicate attributes often.
var refAttrs = []string{"a", "b", "c", "d", "e"}

// refBound draws an interval bound: small integers (so intervals nest,
// overlap, touch and come out empty), the infinities, or NaN.
func refBound(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.Inf(-1)
	case 1:
		return math.Inf(1)
	case 2:
		return math.NaN()
	default:
		return float64(rng.Intn(6))
	}
}

// refInterval draws an interval: a full range, one with random bounds
// (empty when Lo > Hi or a bound is NaN), or a valid one.
func refInterval(rng *rand.Rand) Interval {
	switch rng.Intn(6) {
	case 0:
		return FullRange()
	case 1:
		return Interval{Lo: refBound(rng), Hi: refBound(rng)}
	default:
		lo, hi := refBound(rng), refBound(rng)
		if hi < lo {
			lo, hi = hi, lo
		}
		return Interval{Lo: lo, Hi: hi}
	}
}

// refSubscription draws a canonical filter. Most have up to six
// predicates; one in eight has 13–40, past the size below which the
// standard library's sorts never reorder equal elements, so an unstable
// sort in compile would reorder duplicated attributes.
func refSubscription(rng *rand.Rand) Subscription {
	n := rng.Intn(7)
	if rng.Intn(8) == 0 {
		n = 13 + rng.Intn(28)
	}
	s := Subscription{Preds: make([]Predicate, n)}
	for i := range s.Preds {
		s.Preds[i] = Predicate{Attr: refAttrs[rng.Intn(len(refAttrs))], Interval: refInterval(rng)}
	}
	s.Normalize()
	return s
}

// refEvent draws an event over the pool plus a name no filter uses.
func refEvent(rng *rand.Rand) Event {
	e := Event{Attrs: map[string]float64{"z": refBound(rng)}}
	for _, a := range refAttrs {
		if rng.Intn(3) > 0 {
			e.Attrs[a] = refBound(rng)
		}
	}
	return e
}

// TestPropCompiledFilterMatchesReference checks the compiled filters
// against the string reference on random pairs with shared, missing and
// duplicated attributes, full-range, infinite, empty and NaN bounds:
// covers ≡ Covers both ways, and matches ≡ Matches ≡ matchesView. Each
// pair gets a fresh table that interns the pool in a random order first,
// so attribute IDs do not follow name order.
func TestPropCompiledFilterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 20000; i++ {
		in := newInterner()
		for _, k := range rng.Perm(len(refAttrs)) {
			in.acquire(refAttrs[k])
		}
		a, b := refSubscription(rng), refSubscription(rng)
		fa, fb := in.compile(a), in.compile(b)
		if got, want := fa.covers(fb), a.Covers(b); got != want {
			t.Fatalf("pair %d: compiled covers = %v, reference %v\n a = %+v\n b = %+v", i, got, want, a.Preds, b.Preds)
		}
		if got, want := fb.covers(fa), b.Covers(a); got != want {
			t.Fatalf("pair %d: compiled covers = %v, reference %v\n b = %+v\n a = %+v", i, got, want, b.Preds, a.Preds)
		}
		e := refEvent(rng)
		if got, want := fa.matches(in.view(e)), a.Matches(e); got != want || a.matchesView(viewOf(e)) != want {
			t.Fatalf("pair %d: compiled matches = %v, Matches %v\n a = %+v\n e = %v", i, got, want, a.Preds, e.Attrs)
		}
	}
}
