package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Cost weights of the paper's cost rate Ω = Cvr·Pvr + Cqr·Pqr.
const (
	cvr = 1.0
	cqr = 2.0
)

type metric struct {
	name, unit string
	value      float64
	n          int // samples behind the value
}

// result is what one run reports.
type result struct {
	attempted, failed int
	violations        int
	late              int         // answers that held only with the wider window
	examples          []violation // the first violations found
	// Open-loop query latency split by whether the query fetched: the
	// report's layer-by-layer account compares the fetching ones with
	// the ping floor.
	fetchP50, localP50 float64
	endToEnd           []metric
	perLayer           []metric
	notes              []string
}

// measuredEndToEnd returns the bounded end-to-end metrics followed by the
// unbounded e2e. ones.
func (r *result) measuredEndToEnd() []metric {
	out := append([]metric(nil), r.endToEnd...)
	for _, m := range r.perLayer {
		if strings.HasPrefix(m.name, "e2e.") {
			out = append(out, m)
		}
	}
	return out
}

// find returns the metric called name, from either list.
func (r *result) find(name string) (metric, bool) {
	for _, m := range append(r.endToEnd, r.perLayer...) {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// pct returns the p-quantile (nearest rank) of xs, which it sorts.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// closedWindows is how many equal windows the closed-loop phase is split
// into for peak_ops_per_s.
const closedWindows = 8

// sample is one timed value.
type sample struct {
	t int64 // unix ns
	v float64
}

// windowed returns the interquartile mean, over the windows between
// consecutive bounds, of the p-quantile of the samples timed inside each
// window.
func windowed(bounds []int64, xs []sample, p float64) float64 {
	var per []float64
	for i := 1; i < len(bounds); i++ {
		var vs []float64
		for _, x := range xs {
			if x.t >= bounds[i-1] && x.t < bounds[i] {
				vs = append(vs, x.v)
			}
		}
		if len(vs) > 0 {
			per = append(per, pct(vs, p))
		}
	}
	return iqm(per)
}

// iqm returns the interquartile mean of xs: the mean of the values left
// after dropping the lowest and the highest quarter. On a shared host a
// processor runs at very different speeds from one second to the next; this
// keeps a few slow or fast seconds from setting a run's figure while still
// averaging over most of them.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	q := len(ys) / 4
	ys = ys[q : len(ys)-q]
	var sum float64
	for _, y := range ys {
		sum += y
	}
	return sum / float64(len(ys))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// evaluate runs the oracle over every answer and derives the metrics.
func evaluate(o runOpts, ph *phases, tr *tracer) *result {
	sp := o.spec
	res := &result{}

	// Correctness: every query, ping and standing-query answer. The
	// closed loop's answers were judged during the run.
	var okq []*qrec
	for _, recs := range ph.open {
		for i := range recs {
			res.attempted++
			if recs[i].failed {
				res.failed++
				continue
			}
			okq = append(okq, &recs[i])
		}
	}
	for _, p := range ph.pings {
		res.attempted++
		if p.failed {
			res.failed++
		}
	}
	res.attempted += ph.closed.attempted
	res.failed += ph.closed.failed
	// A standing query whose stream broke lost answers the oracle cannot
	// see; it counts as one failed operation.
	res.attempted += ph.brokenWatches
	res.failed += ph.brokenWatches
	type cqRef struct{ w, i int }
	var answers []cqRef
	for wi, w := range ph.cq {
		for i := range w.got {
			answers = append(answers, cqRef{wi, i})
		}
	}
	res.attempted += len(answers)
	oracles := []*oracle{
		ph.live,
		verify(sp, o.seed, ph.rounds, len(okq), func(i int) check {
			r := okq[i]
			return check{t0: r.issue, t1: r.done, q: &ph.queries[r.conn][r.q], lo: r.lo, hi: r.hi}
		}),
		verify(sp, o.seed, ph.rounds, len(answers), func(i int) check {
			w := ph.cq[answers[i].w]
			g := w.got[answers[i].i]
			return check{t0: g.at, t1: g.at, q: &w.q, lo: g.lo, hi: g.hi}
		}),
	}
	for _, or := range oracles {
		res.violations += or.failed
		res.late += or.late
		res.examples = append(res.examples, or.bad...)
	}
	res.failed += res.violations

	m1, m2 := ph.marks[0], ph.marks[len(ph.marks)-1]
	w0, w1 := m1.wall, m2.wall
	win := float64(w1-w0) / 1e9
	in := func(t int64) bool { return t >= w0 && t < w1 }
	c1, c2 := m1.child, m2.child
	cwin := float64(c2.Wall-c1.Wall) / 1e9

	// Open-loop queries issued inside the window.
	var lat []sample
	var late []float64
	var queries, local, fetched int
	var fetchLat, localLat []float64
	period := int64(time.Second) / int64(max(sp.QPS, 1))
	for _, recs := range ph.open {
		for i, r := range recs {
			if !in(r.issue) {
				continue
			}
			late = append(late, float64(r.issue-ph.start-int64(i)*period)/1e3)
			if r.failed {
				continue
			}
			queries++
			lat = append(lat, sample{r.issue, float64(r.done-r.issue) / 1e3})
			fetched += int(r.fetched)
			if r.fetched == 0 {
				local++
				localLat = append(localLat, float64(r.done-r.issue)/1e3)
			} else {
				fetchLat = append(fetchLat, float64(r.done-r.issue)/1e3)
			}
		}
	}
	var pingLat []float64
	pings := 0
	for _, p := range ph.pings {
		if !in(p.issue) {
			continue
		}
		pings++
		late = append(late, float64(p.issue-p.due)/1e3)
		if !p.failed {
			pingLat = append(pingLat, float64(p.done-p.issue)/1e3)
		}
	}

	// Standing-query answers that arrived inside the window, timed from the
	// start of the latest round.
	starts := make([]int64, len(ph.rounds))
	for i, r := range ph.rounds {
		starts[i] = r.S
	}
	var cqLat []sample
	var cqUpdates int
	var widthFrac float64
	for _, w := range ph.cq {
		for _, g := range w.got {
			if !in(g.at) {
				continue
			}
			cqUpdates++
			widthFrac += ratio(g.hi-g.lo, w.q.Delta)
			if r := sort.Search(len(starts), func(i int) bool { return starts[i] > g.at }); r > 0 {
				cqLat = append(cqLat, sample{g.at, float64(g.at-starts[r-1]) / 1e3})
			}
		}
	}
	coalesced := m2.coalesced - m1.coalesced

	// Rounds that began inside the window.
	var setNs int64
	var refreshes, rounds int
	var roundLate []float64
	for _, r := range ph.rounds {
		if r.T0 < c1.Wall || r.T0 >= c2.Wall {
			continue
		}
		rounds++
		setNs += r.E - r.S
		refreshes += int(r.Refreshes)
		if r.Due != 0 {
			roundLate = append(roundLate, float64(r.T0-r.Due)/1e3)
		}
	}
	sets := float64(c2.Sets - c1.Sets)

	st1, st2 := m1.stats, m2.stats
	vir := float64(st2.ValueRefreshes-st1.ValueRefreshes) + float64(cqUpdates+coalesced)
	qir := float64(st2.QueryRefreshes - st1.QueryRefreshes)
	framesSent := float64(st2.FramesSent - st1.FramesSent)
	framesRecv := float64(st2.FramesReceived - st1.FramesReceived)
	ops := float64(queries + pings + cqUpdates)
	hits := float64(st2.Cache.Hits - st1.Cache.Hits)
	misses := float64(st2.Cache.Misses - st1.Cache.Misses)

	// The workload's reader-facing latency: a bounded query on polled
	// workloads, a standing-query answer on write-side ones.
	opLat := lat
	if !sp.polled() {
		opLat = cqLat
	}
	bounds := make([]int64, len(ph.marks))
	for i, m := range ph.marks {
		bounds[i] = m.wall
	}
	latN := len(opLat)
	p50 := windowed(bounds, opLat, 0.50)
	p99 := windowed(bounds, opLat, 0.99)
	var serverCPU, clientCPU []float64
	var rss int64
	for i := 1; i < len(ph.marks); i++ {
		a, b := ph.marks[i-1], ph.marks[i]
		serverCPU = append(serverCPU, float64(b.child.CPUNs-a.child.CPUNs)/float64(b.child.Wall-a.child.Wall))
		clientCPU = append(clientCPU, float64(b.cpu-a.cpu)/float64(b.wall-a.wall))
		rss = max(rss, b.child.RSSMax)
	}

	// Peak: completed requests per second in the closed loop: queries, or
	// pings on workloads without polled queries. The phase is split into
	// closedWindows and the interquartile mean of the window rates reported.
	span := float64(ph.closedEnd-ph.closedStart) / 1e9 / closedWindows
	rates := make([]float64, closedWindows)
	peakN := 0
	for i, n := range ph.closed.done {
		rates[i] = float64(n) / span
		peakN += n
	}
	peak := iqm(rates)

	res.fetchP50, res.localP50 = pct(fetchLat, 0.5), pct(localLat, 0.5)
	// Only the metrics that hold steady across runs on a shared host carry a
	// bound. Latency, throughput and CPU follow the host's speed, which
	// moved these figures by 20–40% between runs minutes apart, so they are
	// reported unbounded, under e2e., with the per-layer metrics.
	res.endToEnd = []metric{
		{"setup_s", "s", median(ph.setups), len(ph.setups)},
		{"omega_per_s", "cost/s", (cvr*vir + cqr*qir) / win, int(vir + qir)},
		{"server_rss_mb", "MB", float64(rss) / (1 << 20), len(serverCPU)},
	}

	c3, c4 := ph.m3.child, ph.m4.child
	cwin34 := float64(c4.Wall-c3.Wall) / 1e9
	res.perLayer = []metric{
		{"e2e.latency_p50_us", "us", p50, latN},
		{"e2e.latency_p99_us", "us", p99, latN},
		{"e2e.peak_ops_per_s", "1/s", peak, peakN},
		{"e2e.server_cpu_cores", "CPU-s/s", iqm(serverCPU), len(serverCPU)},
		{"e2e.client_cpu_cores", "CPU-s/s", iqm(clientCPU), len(clientCPU)},
		{"server.set_us_mean", "us", ratio(float64(setNs)/1e3, float64(rounds*sp.Keys)), rounds * sp.Keys},
		{"server.set_busy_frac", "ratio", float64(setNs) / 1e9 / cwin, rounds},
		{"server.refreshes_per_set", "ratio", ratio(float64(refreshes), float64(rounds*sp.Keys)), rounds * sp.Keys},
		{"server.push_overflows_per_s", "1/s", float64(c4.Overflows-c3.Overflows) / cwin34, c4.Overflows - c3.Overflows},
		{"server.push_merges_per_s", "1/s", float64(c4.Merges-c3.Merges) / cwin34, c4.Merges - c3.Merges},
		{"server.refresh_cost_ns", "ns", float64(c2.RefreshNs), 1},
		{"server.alloc_bytes_per_s", "B/s", float64(c2.AllocBytes-c1.AllocBytes) / cwin, 1},
		{"server.gc_cpu_frac", "ratio", ratio(c2.GCCPUSec-c1.GCCPUSec, float64(c2.CPUNs-c1.CPUNs)/1e9), 1},
		{"server.round_late_us_p99", "us", pct(roundLate, 0.99), len(roundLate)},
		{"client.ping_us_p50", "us", pct(pingLat, 0.50), len(pingLat)},
		{"client.vir_per_s", "1/s", vir / win, int(vir)},
		{"client.qir_per_s", "1/s", qir / win, int(qir)},
		{"client.frames_sent_per_query", "ratio", ratio(framesSent, float64(queries+pings)), queries + pings},
		{"client.msgs_per_frame_recv", "ratio", ratio(vir+qir+float64(pings), framesRecv), int(framesRecv)},
		{"client.alloc_bytes_per_op", "B", ratio(float64(m2.alloc-m1.alloc), ops), int(ops)},
		{"query.fetched_keys_per_query", "ratio", ratio(float64(fetched), float64(queries)), queries},
		{"query.local_frac", "ratio", ratio(float64(local), float64(queries)), queries},
		{"cache.hit_frac", "ratio", ratio(hits, hits+misses), int(hits + misses)},
		{"cache.evicts_per_s", "1/s", float64(st2.Cache.Evicts-st1.Cache.Evicts) / win, st2.Cache.Evicts - st1.Cache.Evicts},
		{"cache.rejects_per_s", "1/s", float64(st2.Cache.Rejects-st1.Cache.Rejects) / win, st2.Cache.Rejects - st1.Cache.Rejects},
		{"cq.updates_per_set", "ratio", ratio(float64(cqUpdates+coalesced), sets), cqUpdates + coalesced},
		{"cq.width_frac", "ratio", ratio(widthFrac, float64(cqUpdates)), cqUpdates},
		{"watch.coalesced_frac", "ratio", ratio(float64(coalesced), float64(cqUpdates+coalesced)), cqUpdates + coalesced},
		{"wal.bytes_per_set", "B", ratio(float64(c2.WALGrowth-c1.WALGrowth), sets), int(sets)},
		{"loadgen.late_us_p99", "us", pct(late, 0.99), len(late)},
		{"oracle.late_answers", "count", float64(res.late), res.attempted},
	}
	traceNote := ""
	if tr != nil {
		// Metrics only for the spans the traced run records itself: round
		// spans come from the round log, which server.set_busy_frac
		// already reports. A delivery span starts at its round's start.
		recorded := len(tr.spans)
		tr.addRounds(ph.rounds, sp.Keys)
		b := tr.busy(w0, w1)
		frac := func(k spanKind) float64 { return float64(b[k]) / 1e9 / win }
		res.perLayer = append(res.perLayer,
			metric{"trace.client_query_busy_frac", "ratio", frac(spanQuery), queries},
			metric{"trace.client_ping_busy_frac", "ratio", frac(spanPing), pings},
			metric{"trace.watch_delivery_busy_frac", "ratio", frac(spanDelivery), cqUpdates},
			metric{"trace.spans", "count", float64(recorded), recorded},
		)
		traceNote = "trace busy time in the open loop, per module:"
		for k, name := range spanNames {
			traceNote += fmt.Sprintf(" %s %.3fs", name, float64(b[spanKind(k)])/1e9)
		}
		// Only rounds have child spans: a round's self time is the time it
		// spent stepping the walks, outside its Set loop.
		traceNote += fmt.Sprintf("; server.round self %.3fs", float64(b[spanRound]-b[spanSet])/1e9)
	}
	res.notes = []string{
		fmt.Sprintf("workload %s seed %d: %s", sp.Name, o.seed, sp.Why),
		sizes(sp),
		fmt.Sprintf("processes: load generator GOMAXPROCS=1 with %d connections; server child GOMAXPROCS=%d; WAL %s", conns, ph.procs, walPolicy(sp)),
		fmt.Sprintf("phases: %d set-ups, warm-up %v, open loop %.2fs, closed loop %.2fs", len(ph.setups), o.warmup, win, float64(ph.closedEnd-ph.closedStart)/1e9),
	}
	if traceNote != "" {
		res.notes = append(res.notes, traceNote)
	}
	return res
}

// sizes describes a workload's inputs for the report.
func sizes(sp Spec) string {
	out := fmt.Sprintf("sizes: %d keys stepped every %v (steps U[%g,%g]", sp.Keys, sp.Period, stepLo, stepHi)
	if sp.HotFrac > 0 {
		out += fmt.Sprintf(", %g of keys %gx", sp.HotFrac, sp.HotScale)
	}
	out += fmt.Sprintf("); %d connections, cache %d keys each", conns, sp.CacheSize)
	if sp.polled() {
		mix := "SUM only"
		if sp.SumPerMax > 0 {
			mix = fmt.Sprintf("%d SUM : 1 MAX", sp.SumPerMax)
		}
		keys := "uniform"
		if sp.Zipf > 0 {
			keys = fmt.Sprintf("zipf(%g)", sp.Zipf)
		}
		out += fmt.Sprintf("; %d q/s per connection over %d %s keys, %s, δ ~ U[%g,%g]; closed loop %d outstanding per connection",
			sp.QPS, queryKeys, keys, mix, deltaAvg*(1-deltaSigma), deltaAvg*(1+deltaSigma), outstanding)
	}
	if sp.Standing {
		out += fmt.Sprintf("; %d standing queries per connection over %d keys, 3 SUM (Δ=%g) : 1 MAX (Δ=%g); closed loop pings, %d outstanding per connection",
			cqPerConn, cqKeys, cqSumDelta, cqMaxDelta, outstanding)
	}
	return out + fmt.Sprintf("; pings %d/s", pingRate)
}

func walPolicy(sp Spec) string {
	if sp.WAL {
		return "fsync=interval (2ms group commit)"
	}
	return "off"
}

// print writes the report lines, then the result JSON as the last line. The
// JSON carries the end-to-end metrics, or with trace the per-layer ones.
func (r *result) print(w io.Writer, trace bool) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, v := range r.examples[:min(len(r.examples), 10)] {
		fmt.Fprintln(w, "# VIOLATION", v)
	}
	fmt.Fprintf(w, "# correctness: %d attempted, %d failed (%d oracle violations); %d answers held only with %v more slack\n", r.attempted, r.failed, r.violations, r.late, pollSlack)
	for _, set := range []struct {
		name string
		ms   []metric
	}{{"end-to-end", r.endToEnd}, {"per-layer", r.perLayer}} {
		for _, m := range set.ms {
			fmt.Fprintf(w, "# %-10s %-32s %14.4f %-8s n=%d\n", set.name, m.name, m.value, m.unit, m.n)
		}
	}
	ms := r.endToEnd
	if trace {
		ms = r.perLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.failed == 0, r.attempted, r.failed)
	for i, m := range ms {
		if i > 0 {
			b.WriteString(", ")
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(&b, `"%s": {"value": %v, "unit": "%s"}`, m.name, v, m.unit)
	}
	b.WriteString("}}")
	fmt.Fprintln(w, b.String())
}
