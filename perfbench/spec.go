package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"apcache/internal/workload"
)

// Sizes shared by every workload.
const (
	conns       = 2   // client connections of the load generator
	stepLo      = 0.5 // random-walk steps are U[stepLo, stepHi]
	stepHi      = 1.5
	queryKeys   = 10   // keys per polled query
	deltaAvg    = 20.0 // polled query δ ~ ConstraintDist{deltaAvg, deltaSigma}
	deltaSigma  = 1.0
	pingRate    = 20   // pings per second on connection 0, open-loop phase only
	outstanding = 8    // closed-loop requests in flight per connection
	cqSumDelta  = 64.0 // Δ of standing SUMs
	cqMaxDelta  = 8.0  // Δ of standing MAXes (every fourth standing query)
	cqPerConn   = 16   // standing queries registered per connection
	cqKeys      = 32   // keys per standing query
)

// Spec is what differs between workloads. It travels to the server child as
// JSON.
type Spec struct {
	Name string
	Why  string

	Keys     int           // source values hosted by the server
	Period   time.Duration // update round: every key steps once
	HotFrac  float64       // share of keys whose steps are scaled by HotScale
	HotScale float64

	CacheSize int     // κ, per connection
	QPS       int     // open-loop bounded queries per second, per connection (0 = none)
	SumPerMax int     // polled queries: SumPerMax SUMs to one MAX (0 = SUM only)
	Zipf      float64 // zipf exponent of query keys (0 = uniform)

	Standing bool // register cqPerConn standing queries per connection
	WAL      bool // journal with fsync=interval
}

func (s Spec) polled() bool { return s.QPS > 0 }

// workloads are the benchmark's named traffic mixes. Their sizes put the
// server under half a core at the open-loop rates on a 2-CPU host.
var workloads = []Spec{
	{
		Name: "paper_sum",
		Why:  "the paper's Section 4 setting with a cache holding every key: the query-initiated path does the work",
		Keys: 1000, Period: 10 * time.Millisecond,
		CacheSize: 1000, QPS: 1000, SumPerMax: 3,
	},
	{
		Name: "skewed_small_cache",
		Why:  "zipf keys over a working set 8x the client cache: misses, evictions and pushes for evicted keys",
		Keys: 4096, Period: 20 * time.Millisecond,
		CacheSize: 512, QPS: 1000, Zipf: 1.1,
	},
	{
		Name: "standing_cq",
		Why:  "standing queries over keys of skewed volatility: all work is on the write side, CQ engine and pushes",
		Keys: 1000, Period: 10 * time.Millisecond, HotFrac: 0.1, HotScale: 4,
		CacheSize: 1000, Standing: true,
	},
	// durable_cq rounds are 40 times slower than standing_cq's: the journal
	// compacts about every 11 rounds with every shard lock held across a
	// rename and an fsync per shard file, which took 0.2-1 s on the disk
	// these sizes were set on, and a round period well above that keeps Set
	// busy under half the time.
	{
		Name: "durable_cq",
		Why:  "standing_cq with a write-ahead log (fsync=interval) in slower rounds: Sets journal, and compaction stalls the rounds",
		Keys: 1000, Period: 400 * time.Millisecond, HotFrac: 0.1, HotScale: 4,
		CacheSize: 1000, Standing: true, WAL: true,
	},
}

func lookupSpec(name string) (Spec, error) {
	for _, s := range workloads {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// walks builds the seeded update schedule: one random walk per key, all
// drawn from one generator in key order, so stepping every key once per
// round in key order replays the same values in any process.
func (s Spec) walks(seed int64) []*workload.RandomWalk {
	hot := s.hotKeys(seed)
	rng := rand.New(rand.NewSource(seed))
	out := make([]*workload.RandomWalk, s.Keys)
	for k := range out {
		lo, hi := stepLo, stepHi
		if hot[k] {
			lo, hi = lo*s.HotScale, hi*s.HotScale
		}
		out[k] = workload.NewRandomWalk(0, lo, hi, rng)
	}
	return out
}

// hotKeys marks the HotFrac of the keys, drawn from the seed, whose steps
// are scaled by HotScale.
func (s Spec) hotKeys(seed int64) []bool {
	hot := make([]bool, s.Keys)
	n := int(s.HotFrac * float64(s.Keys))
	for _, k := range rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(s.Keys)[:n] {
		hot[k] = true
	}
	return hot
}

// queries draws connection conn's polled queries. QueryGen.Next returns a
// slice of an n-int scratch array, so each kept query gets its own copy of
// its keys; keeping the view would pin the whole array per query.
func (s Spec) queries(seed int64, conn, n int) []workload.Query {
	kinds := []workload.AggKind{workload.Sum}
	if s.SumPerMax > 0 {
		kinds = make([]workload.AggKind, s.SumPerMax, s.SumPerMax+1)
		kinds = append(kinds, workload.Max)
	}
	g := workload.QueryGen{
		Kinds:        kinds,
		NumSources:   s.Keys,
		KeysPerQuery: queryKeys,
		Constraints:  workload.ConstraintDist{Avg: deltaAvg, Sigma: deltaSigma},
		RNG:          rand.New(rand.NewSource(seed*1_000_003 + int64(conn) + 1)),
	}
	if s.Zipf > 0 {
		g.Zipf = workload.NewZipfKeys(s.Keys, s.Zipf)
	}
	out := make([]workload.Query, n)
	for i := range out {
		q := g.Next()
		q.Keys = append([]int(nil), q.Keys...)
		out[i] = q
	}
	return out
}

// standingQueries draws connection conn's continuous queries: SUMs and
// every fourth one a MAX, each over cqKeys distinct keys of which the
// HotFrac share, rounded, are hot. Fixing that share makes seeds differ in
// which keys a query watches, not in how many hot ones: drawn freely, the
// hot keys the queries of a run covered ranged from 83 to 127 over ten
// seeds, and Ω followed them.
func (s Spec) standingQueries(seed int64, conn int) []workload.Query {
	rng := rand.New(rand.NewSource(seed*7_000_003 + int64(conn) + 1))
	var hot, cold []int
	for k, h := range s.hotKeys(seed) {
		if h {
			hot = append(hot, k)
		} else {
			cold = append(cold, k)
		}
	}
	nHot := int(math.Round(s.HotFrac * cqKeys))
	draw := func(from []int, n int) []int {
		out := make([]int, n)
		for i, j := range rng.Perm(len(from))[:n] {
			out[i] = from[j]
		}
		return out
	}
	out := make([]workload.Query, cqPerConn)
	for i := range out {
		q := workload.Query{Kind: workload.Sum, Delta: cqSumDelta}
		if i%4 == 3 {
			q = workload.Query{Kind: workload.Max, Delta: cqMaxDelta}
		}
		q.Keys = append(draw(hot, nHot), draw(cold, cqKeys-nHot)...)
		out[i] = q
	}
	return out
}
