package scbr

import (
	"cmp"
	"slices"
)

// Compiled filters. The broker decodes every predicate's attribute name
// into a fresh string, so comparing filters by name would compare bytes
// ("scope1" … "scope5") at every merge step of every containment check.
// An Index instead interns the attribute names its stored filters use and
// keeps each filter compiled: its predicates as (attribute ID, interval)
// pairs sorted by ID. Covering and matching are then the same linear
// merges as on name-sorted predicates, on integers.

// cpred is one compiled predicate.
type cpred struct {
	attr uint32
	iv   Interval
}

// filter is a compiled subscription. Its predicates are sorted stably by
// attribute ID, so predicates on one attribute keep Normalize's order and
// a duplicated attribute covers exactly as in name order.
type filter []cpred

// interner maps attribute names to IDs for one Index. An entry counts the
// compiled predicates of live nodes naming it and is dropped with the
// last, so client-chosen names cannot grow the table past the filters
// currently stored; a dropped entry's ID is reused.
type interner struct {
	ids   map[string]uint32
	names []string // by ID
	refs  []int    // by ID
	free  []uint32 // IDs of dropped entries
}

func newInterner() interner { return interner{ids: make(map[string]uint32)} }

// acquire returns name's ID, interning it first if no live filter names it.
func (in *interner) acquire(name string) uint32 {
	id, ok := in.ids[name]
	if !ok {
		if last := len(in.free) - 1; last >= 0 {
			id, in.free = in.free[last], in.free[:last]
			in.names[id] = name
		} else {
			id = uint32(len(in.names))
			in.names = append(in.names, name)
			in.refs = append(in.refs, 0)
		}
		in.ids[name] = id
	}
	in.refs[id]++
	return id
}

// compile interns s's attributes and returns its compiled filter. The
// caller owns one reference per predicate and hands them back with
// release.
func (in *interner) compile(s Subscription) filter {
	f := make(filter, len(s.Preds))
	for i, p := range s.Preds {
		f[i] = cpred{attr: in.acquire(p.Attr), iv: p.Interval}
	}
	slices.SortStableFunc(f, func(a, b cpred) int { return cmp.Compare(a.attr, b.attr) })
	return f
}

// release drops f's references, forgetting every name no live filter
// names any more.
func (in *interner) release(f filter) {
	for _, p := range f {
		if in.refs[p.attr]--; in.refs[p.attr] == 0 {
			delete(in.ids, in.names[p.attr])
			in.names[p.attr] = ""
			in.free = append(in.free, p.attr)
		}
	}
}

// attrVal is one event attribute in an Index's terms.
type attrVal struct {
	attr uint32
	val  float64
}

// view returns the attributes of e that some stored filter names, sorted
// by ID — the form filter.matches merges against. Attributes no filter
// names cannot decide a match and are dropped. view only reads the table,
// so concurrent MatchSnapshot calls may each build one.
func (in *interner) view(e Event) []attrVal {
	ev := make([]attrVal, 0, len(e.Attrs))
	for a, v := range e.Attrs {
		if id, ok := in.ids[a]; ok {
			ev = append(ev, attrVal{attr: id, val: v})
		}
	}
	slices.SortFunc(ev, func(a, b attrVal) int { return cmp.Compare(a.attr, b.attr) })
	return ev
}

// matches reports whether the event whose view is ev satisfies every
// predicate of f.
func (f filter) matches(ev []attrVal) bool {
	j := 0
	for i := range f {
		p := &f[i]
		for j < len(ev) && ev[j].attr < p.attr {
			j++
		}
		if j >= len(ev) || ev[j].attr != p.attr || !p.iv.Contains(ev[j].val) {
			return false
		}
	}
	return true
}

// covers reports whether f is at least as general as g: every event
// matching g also matches f. For conjunctive interval filters this holds
// iff for every predicate of f, g constrains the same attribute with an
// interval contained in f's — or, where g leaves the attribute free, f's
// interval admits every value.
func (f filter) covers(g filter) bool {
	j := 0
	for i := range f {
		p := &f[i]
		for j < len(g) && g[j].attr < p.attr {
			j++
		}
		if j < len(g) && g[j].attr == p.attr {
			if !p.iv.Covers(g[j].iv) {
				return false
			}
			continue
		}
		if !p.iv.Covers(FullRange()) {
			return false
		}
	}
	return true
}
