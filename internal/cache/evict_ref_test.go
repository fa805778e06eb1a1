package cache

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"apcache/internal/interval"
)

// refCache is the eviction policy written as a linear scan over every
// resident, the way both caches chose their victims before the width heap.
// It mirrors SeqCache's Put/repay/Drop step for step (with a nil lender it
// is Cache), so the differential tests below can demand bit-identical
// victim choices, reject decisions and contents.
type refCache struct {
	base    int
	budget  *Budget
	lender  *Lender
	entries map[int]Entry

	admits, evicts, rejects int
	// excludedTopRepays counts repay evictions made while the excluded key
	// was the widest resident: the case the heap answers from the top's
	// children.
	excludedTopRepays int
}

func newRefCache(base int, budget *Budget) *refCache {
	r := &refCache{base: base, budget: budget, entries: map[int]Entry{}}
	if budget != nil {
		r.lender = budget.Register()
	}
	return r
}

func (r *refCache) capacity() int {
	if r.lender == nil {
		return r.base
	}
	return r.base + r.lender.Borrowed()
}

// widest scans for the widest resident other than exclude (ties go to the
// smaller key); ok is false when there is none.
func (r *refCache) widest(exclude int) (key int, width float64, ok bool) {
	key, width = 0, math.Inf(-1)
	for k, e := range r.entries {
		if k == exclude {
			continue
		}
		if e.OriginalWidth > width || (e.OriginalWidth == width && k < key) {
			key, width, ok = k, e.OriginalWidth, true
		}
	}
	return key, width, ok
}

func (r *refCache) repay(exclude int) {
	for r.lender.owed.Load() > 0 && r.lender.borrowed.Load() > 0 {
		if len(r.entries) >= r.capacity() {
			k, _, ok := r.widest(exclude)
			if !ok {
				break
			}
			if _, resident := r.entries[exclude]; resident {
				if top, _, _ := r.widest(math.MinInt); top == exclude {
					r.excludedTopRepays++
				}
			}
			delete(r.entries, k)
			r.evicts++
		}
		r.budget.releaseFrom(r.lender)
	}
	if r.lender.borrowed.Load() == 0 && r.lender.owed.Load() > 0 {
		r.lender.owed.Store(0)
	}
}

func (r *refCache) Put(key int, iv interval.Interval, w float64) (int, bool) {
	if r.lender != nil {
		r.lender.decay()
		r.repay(key)
	}
	e := Entry{Key: key, Interval: iv, OriginalWidth: w}
	if _, ok := r.entries[key]; ok {
		r.entries[key] = e
		return 0, false
	}
	if len(r.entries) < r.capacity() || (r.lender != nil && r.budget.Acquire(r.lender)) {
		r.entries[key] = e
		r.admits++
		return 0, false
	}
	victim, widest, ok := r.widest(key)
	if r.lender != nil {
		r.lender.bump()
	}
	if !ok || w >= widest {
		r.rejects++
		return 0, false
	}
	delete(r.entries, victim)
	r.evicts++
	r.entries[key] = e
	r.admits++
	return victim, true
}

func (r *refCache) Drop(key int) bool {
	if _, ok := r.entries[key]; !ok {
		return false
	}
	delete(r.entries, key)
	r.evicts++
	if r.lender != nil && r.lender.borrowed.Load() > 0 {
		r.budget.releaseFrom(r.lender)
	}
	return true
}

func (r *refCache) Entries() []Entry {
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

func (r *refCache) Stats() Stats {
	return Stats{Admits: r.admits, Evicts: r.evicts, Rejects: r.rejects}
}

// underTest is the writer surface both caches share.
type underTest interface {
	Put(key int, iv interval.Interval, w float64) (int, bool)
	Drop(key int) bool
	Entries() []Entry
	Contains(key int) bool
	Stats() Stats
}

// opGen draws one random writer operation against a cache whose reference
// model is ref. Widths come from a small integer grid half the time, so
// exact ties are common, and a resident key is often rewritten to a width
// just past the widest resident or well below it.
type opGen struct {
	rng  *rand.Rand
	keys int
}

func (g opGen) width() float64 {
	if g.rng.Intn(2) == 0 {
		return float64(g.rng.Intn(8))
	}
	return g.rng.Float64() * 8
}

// next returns a Put (drop false) or Drop (drop true) for ref.
func (g opGen) next(ref *refCache) (key int, w float64, drop bool) {
	switch p := g.rng.Intn(20); {
	case p < 2:
		return g.rng.Intn(g.keys), 0, true
	case p < 8 && len(ref.entries) > 0:
		// Rewrite a resident in place: widen it past the widest resident,
		// tie the widest, or narrow it to the bottom.
		key = g.residentKey(ref)
		top, widest, _ := ref.widest(math.MinInt)
		switch g.rng.Intn(4) {
		case 0:
			return key, widest + 1 + g.rng.Float64(), false
		case 1:
			return key, widest, false
		case 2:
			return top, g.rng.Float64() * 0.5, false
		default:
			return key, g.rng.Float64() * 0.5, false
		}
	case p < 10 && len(ref.entries) > 0:
		// Rewrite the widest resident: repay must then skip it while it
		// is on top.
		top, _, _ := ref.widest(math.MinInt)
		return top, g.width() + 8, false
	default:
		return g.rng.Intn(g.keys), g.width(), false
	}
}

func (g opGen) residentKey(ref *refCache) int {
	keys := make([]int, 0, len(ref.entries))
	for k := range ref.entries {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys[g.rng.Intn(len(keys))]
}

// step applies one operation to a cache and its reference and fails the
// test on the first difference.
func step(t *testing.T, seed int64, i int, c underTest, ref *refCache, key int, w float64, drop bool) {
	t.Helper()
	if drop {
		if got, want := c.Drop(key), ref.Drop(key); got != want {
			t.Fatalf("seed %d op %d: Drop(%d) = %v, reference %v", seed, i, key, got, want)
		}
	} else {
		iv := interval.Centered(float64(key), w)
		gk, gd := c.Put(key, iv, w)
		wk, wd := ref.Put(key, iv, w)
		if gk != wk || gd != wd {
			t.Fatalf("seed %d op %d: Put(%d, w=%g) evicted (%d, %v), reference (%d, %v)", seed, i, key, w, gk, gd, wk, wd)
		}
		if _, want := ref.entries[key]; c.Contains(key) != want {
			t.Fatalf("seed %d op %d: Put(%d, w=%g) admitted = %v, reference %v", seed, i, key, w, !want, want)
		}
	}
	if got, want := c.Entries(), ref.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d op %d: Entries()\n got %v\nwant %v", seed, i, got, want)
	}
	got, want := c.Stats(), ref.Stats()
	got.Hits, got.Misses = 0, 0
	if got != want {
		t.Fatalf("seed %d op %d: Stats() = %+v, reference %+v", seed, i, got, want)
	}
}

// TestCacheMatchesLinearScanReference drives long seeded op sequences
// through Cache and the linear-scan reference, comparing after every step.
func TestCacheMatchesLinearScanReference(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(24)
		g := opGen{rng: rng, keys: 3 * capacity}
		c, ref := New(capacity), newRefCache(capacity, nil)
		for i := 0; i < ops; i++ {
			key, w, drop := g.next(ref)
			step(t, seed, i, c, ref, key, w, drop)
		}
		if ref.evicts == 0 || ref.rejects == 0 {
			t.Fatalf("seed %d: sequence never evicted or rejected: %+v", seed, ref.Stats())
		}
	}
}

// TestSeqCacheMatchesLinearScanReference does the same for two SeqCaches
// sharing a budget, against two references sharing a budget of their own,
// so borrowing, reclaim flags and repay run on both sides in lockstep.
func TestSeqCacheMatchesLinearScanReference(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	excludedTop := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base, slack := 1+rng.Intn(12), 1+rng.Intn(12)
		pool, refPool := NewBudget(slack), NewBudget(slack)
		cs := []*SeqCache{NewSeq(base, pool), NewSeq(base, pool)}
		refs := []*refCache{newRefCache(base, refPool), newRefCache(base, refPool)}
		g := opGen{rng: rng, keys: 3 * (base + slack)}
		for i := 0; i < ops; i++ {
			// The first cache is written three times as often, so it runs
			// hot and the other is the calm borrower flagged to repay.
			j := 0
			if rng.Intn(4) == 0 {
				j = 1
			}
			key, w, drop := g.next(refs[j])
			step(t, seed, i, cs[j], refs[j], key, w, drop)
			if got, want := cs[j].Borrowed(), refs[j].lender.Borrowed(); got != want {
				t.Fatalf("seed %d op %d: Borrowed() = %d, reference %d", seed, i, got, want)
			}
		}
		excludedTop += refs[0].excludedTopRepays + refs[1].excludedTopRepays
	}
	if excludedTop == 0 {
		t.Fatalf("no repay ran with the excluded key on top; the sequences miss that case")
	}
}
