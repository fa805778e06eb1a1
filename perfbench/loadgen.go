package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"apcache/internal/client"
	"apcache/internal/query"
	"apcache/internal/watch"
	"apcache/internal/workload"
)

// markEvery splits the open-loop phase into windows. Latency percentiles
// and CPU rates are taken per window and reported as the interquartile mean
// over the windows (see iqm).
const markEvery = time.Second

// opTimeout bounds every query and ping; one that runs out counts as failed.
const opTimeout = time.Second

// A run sets up repeatedly for setupFor, and at least minSetups times;
// setup_s is the median. Then it warms up for warmup, untimed.
const (
	setupFor  = 2 * time.Second
	minSetups = 3
	warmup    = 2 * time.Second
)

// runOpts configures one benchmark run of one workload.
type runOpts struct {
	spec    Spec
	seed    int64
	seconds float64 // open-loop plus closed-loop phase
	trace   bool
	exe     string // binary re-executed as the server child
	work    string // directory for journals and trace files
	// setupFor and warmup are the constants of the same names; the
	// self-test shortens them.
	setupFor, warmup time.Duration
}

// qrec is one polled query: issued, and done when QueryCtx returned, with
// the answer. An open-loop query's due time follows from its index.
type qrec struct {
	issue, done int64 // unix ns
	lo, hi      float64
	q           int32 // index into the connection's query list
	conn        uint8
	fetched     uint16 // len(Answer.Refreshed)
	failed      bool   // an error or a timeout
}

// cqRec is one standing-query answer as it reached the consumer.
type cqRec struct {
	at     int64
	lo, hi float64
}

// cqWatch consumes one WatchQuery stream.
type cqWatch struct {
	q    workload.Query
	w    *watch.Watch
	got  []cqRec
	done chan struct{}
}

func (c *cqWatch) consume(tr *tracer) {
	defer close(c.done)
	for u := range c.w.Updates() {
		if u.Event != watch.EventRefresh {
			continue
		}
		at := time.Now().UnixNano()
		c.got = append(c.got, cqRec{at: at, lo: u.Interval.Lo, hi: u.Interval.Hi})
		tr.add(span{kind: spanDelivery, start: at, end: at})
	}
}

// session is one set-up: a server child and the load generator's clients.
type session struct {
	ch      *child
	clients []*client.Client
	watches []*cqWatch
	walDir  string
}

func (s *session) close() {
	for _, w := range s.watches {
		w.w.Close()
		<-w.done
	}
	for _, c := range s.clients {
		c.Close()
	}
	if s.ch != nil {
		s.ch.kill()
	}
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
}

// setup starts a server child and dials, subscribes and registers every
// connection. Its duration is one setup_s sample.
func setup(o runOpts, n int, cqs [][]workload.Query, tr *tracer) (*session, time.Duration, error) {
	sp := o.spec
	s := &session{}
	if sp.WAL {
		s.walDir = filepath.Join(o.work, fmt.Sprintf("wal-%d-%d", os.Getpid(), n))
		if err := os.RemoveAll(s.walDir); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	ch, err := startChild(o.exe, sp, o.seed, s.walDir)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	s.ch = ch
	all := make([]int, sp.Keys)
	for k := range all {
		all[k] = k
	}
	for c := 0; c < conns; c++ {
		cl, err := client.DialConfig(ch.addr, client.Config{CacheSize: sp.CacheSize, Timeout: 10 * time.Second})
		if err != nil {
			s.close()
			return nil, 0, err
		}
		s.clients = append(s.clients, cl)
		if sp.polled() {
			if err := cl.SubscribeMulti(all); err != nil {
				s.close()
				return nil, 0, fmt.Errorf("subscribe: %w", err)
			}
		}
		for _, q := range cqs[c] {
			w, err := cl.WatchQuery(q.Kind, q.Delta, q.Keys...)
			if err != nil {
				s.close()
				return nil, 0, fmt.Errorf("register standing query: %w", err)
			}
			cw := &cqWatch{q: q, w: w, done: make(chan struct{})}
			s.watches = append(s.watches, cw)
			go cw.consume(tr)
		}
	}
	return s, time.Since(start), nil
}

// pmark is the load generator's view at a mark, with the child's.
type pmark struct {
	wall      int64
	cpu       int64
	alloc     uint64
	stats     client.Stats // summed over connections
	coalesced int
	child     snapshot
}

func (s *session) mark() (pmark, error) {
	samp := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(samp)
	m := pmark{wall: time.Now().UnixNano(), cpu: processCPU(), alloc: samp[0].Value.Uint64()}
	for _, c := range s.clients {
		st := c.Stats()
		m.stats.ValueRefreshes += st.ValueRefreshes
		m.stats.QueryRefreshes += st.QueryRefreshes
		m.stats.FramesSent += st.FramesSent
		m.stats.FramesReceived += st.FramesReceived
		m.stats.Cache.Hits += st.Cache.Hits
		m.stats.Cache.Misses += st.Cache.Misses
		m.stats.Cache.Evicts += st.Cache.Evicts
		m.stats.Cache.Rejects += st.Cache.Rejects
	}
	for _, w := range s.watches {
		m.coalesced += w.w.Coalesced()
	}
	return m, s.ch.request("mark", "mark", &m.child)
}

// pingRec is one sampled ping.
type pingRec struct {
	due, issue, done int64
	failed           bool
}

// phases holds everything a run recorded, for the oracle and the metrics.
type phases struct {
	setups []float64 // seconds
	procs  int       // server child GOMAXPROCS
	marks  []pmark   // open-loop window, one mark per markEvery
	m3, m4 pmark     // closed-loop window
	open   [][]qrec  // per connection, in schedule order
	// The closed loop's counts; the live oracle judged its answers during
	// the run.
	closed closedStats
	live   *oracle
	// Standing-query streams that ended in an error before the run did.
	brokenWatches int
	pings         []pingRec
	cq            []*cqWatch
	rounds        []roundRec
	queries       [][]workload.Query
	start         int64 // open-loop schedule origin: query i is due at start + i*period
	closedStart   int64
	closedEnd     int64
}

// run executes one benchmark run: set-up (several times), warm-up, the
// open-loop phase, the closed-loop phase, then the round log.
func run(o runOpts) (*phases, *tracer, error) {
	sp := o.spec
	total := time.Duration(o.seconds * float64(time.Second))
	closedDur := total / 4
	openDur := total - closedDur

	// Every input is drawn from the seed before anything is timed.
	ph := &phases{queries: make([][]workload.Query, conns)}
	cqs := make([][]workload.Query, conns)
	nq := 0
	if sp.polled() {
		nq = int(float64(sp.QPS)*(o.warmup+openDur).Seconds()) + sp.QPS
	}
	for c := 0; c < conns; c++ {
		if sp.polled() {
			ph.queries[c] = sp.queries(o.seed, c, nq)
		}
		if sp.Standing {
			cqs[c] = sp.standingQueries(o.seed, c)
		}
	}
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}

	var s *session
	for t0, i := time.Now(), 0; ; i++ {
		if s != nil {
			s.close()
		}
		var d time.Duration
		var err error
		s, d, err = setup(o, i, cqs, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		ph.setups = append(ph.setups, d.Seconds())
		if i+1 >= minSetups && time.Since(t0) >= o.setupFor {
			break
		}
	}
	defer s.close()
	ph.procs = s.ch.procs
	ph.cq = s.watches
	runtime.GC() // start the timed phases from a collected heap

	if err := s.ch.send("run"); err != nil {
		return nil, nil, err
	}
	start := time.Now().UnixNano()
	ph.start = start
	openStart := start + int64(o.warmup)
	openEnd := openStart + int64(openDur)

	// Open loop: a pacer issues every request that is due each time it
	// wakes. It never waits on a reply or spins: each request runs on its
	// own goroutine and is timed from issue.
	var wg sync.WaitGroup
	ph.open = make([][]qrec, conns)
	for c := range ph.open {
		ph.open[c] = make([]qrec, nq)
	}
	npings := int(pingRate*time.Duration(openEnd-start).Seconds()) + 1
	ph.pings = make([]pingRec, npings)
	var streams []*stream
	for c := 0; c < conns && sp.polled(); c++ {
		c, cl, recs, qs := c, s.clients[c], ph.open[c], ph.queries[c]
		streams = append(streams, &stream{
			period: int64(time.Second) / int64(sp.QPS), next: start, limit: nq,
			issue: func(i int, due, now int64) {
				r := &recs[i]
				r.issue, r.q, r.conn = now, int32(i), uint8(c)
				wg.Add(1)
				go func() {
					defer wg.Done()
					doQuery(cl, qs[i], r, tr, uint64(c)<<40|uint64(i))
				}()
			},
		})
	}
	pinger := s.clients[0]
	streams = append(streams, &stream{
		// Half a round after the round starts, so pings do not meet each
		// round's burst of pushes and measure the floor instead.
		period: int64(time.Second) / pingRate, next: start + int64(sp.Period)/2, limit: npings,
		issue: func(i int, due, now int64) {
			r := &ph.pings[i]
			r.due, r.issue = due, now
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				err := pinger.PingCtx(ctx)
				cancel()
				r.done = time.Now().UnixNano()
				r.failed = err != nil
				tr.add(span{kind: spanPing, id: uint64(i), start: r.issue, end: r.done})
			}()
		},
	})
	paced := make(chan struct{})
	go func() {
		defer close(paced)
		pace(streams, openEnd)
	}()
	// On an early return, let the pacer and its requests finish before the
	// session closes under them.
	defer func() {
		<-paced
		wg.Wait()
	}()

	var err error
	for t := openStart; ; t += int64(markEvery) {
		t = min(t, openEnd)
		sleepUntil(t)
		m, err := s.mark()
		if err != nil {
			return nil, nil, err
		}
		ph.marks = append(ph.marks, m)
		if t == openEnd {
			break
		}
	}
	<-paced
	wg.Wait()
	for c := range ph.open {
		if sp.polled() {
			ph.open[c] = ph.open[c][:streams[c].n]
		}
	}
	ph.pings = ph.pings[:streams[len(streams)-1].n]

	// Closed loop: a fixed number of requests outstanding per connection,
	// bounded queries where the workload polls, pings where it only
	// watches standing queries. Update rounds keep their period.
	lo, err := startLiveOracle(sp, o.seed, s.ch.roundLog)
	if err != nil {
		return nil, nil, err
	}
	if ph.m3, err = s.mark(); err != nil {
		return nil, nil, err
	}
	ph.closedStart = time.Now().UnixNano()
	ph.closedEnd = ph.closedStart + int64(closedDur)
	ph.closed = closedLoop(s, sp, ph.queries, ph.closedStart, ph.closedEnd, lo)
	if err := lo.finish(); err != nil {
		return nil, nil, err
	}
	ph.live = lo.oracle
	if ph.m4, err = s.mark(); err != nil {
		return nil, nil, err
	}
	for _, w := range s.watches {
		select {
		case <-w.done: // the stream ended before the run closed it
			ph.brokenWatches++
		default:
		}
	}
	if ph.rounds, err = s.ch.stop(); err != nil {
		return nil, nil, err
	}
	return ph, tr, nil
}

func doQuery(cl *client.Client, q workload.Query, r *qrec, tr *tracer, id uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	ans, err := cl.QueryCtx(ctx, q)
	cancel()
	r.done = time.Now().UnixNano()
	r.failed = err != nil
	r.lo, r.hi = ans.Result.Lo, ans.Result.Hi
	r.fetched = uint16(len(ans.Refreshed))
	tr.add(span{kind: spanQuery, id: id, start: r.issue, end: r.done, n: len(ans.Refreshed)})
}

// closedStats counts one closed-loop worker's requests.
type closedStats struct {
	done              [closedWindows]int // completed within each window of the phase
	attempted, failed int
}

func (c *closedStats) add(o closedStats) {
	for i := range c.done {
		c.done[i] += o.done[i]
	}
	c.attempted += o.attempted
	c.failed += o.failed
}

// closedLoop keeps outstanding requests in flight per connection from
// start until end: bounded queries, cycling through each connection's
// query list, or pings on workloads without polled queries. Query answers
// go to the live oracle as they arrive; a cache-resident workload completes
// several hundred thousand a second, too many to keep.
func closedLoop(s *session, sp Spec, qs [][]workload.Query, start, end int64, lo *liveOracle) closedStats {
	span := (end - start) / closedWindows
	var wg sync.WaitGroup
	per := make([]closedStats, conns*outstanding)
	for c := 0; c < conns; c++ {
		var next atomic.Int64
		cl, list := s.clients[c], qs[c]
		for w := 0; w < outstanding; w++ {
			st := &per[c*outstanding+w]
			wg.Add(1)
			go func() {
				defer wg.Done()
				batch := lo.batch()
				for {
					issue := time.Now().UnixNano()
					if issue >= end {
						break
					}
					ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
					var err error
					if sp.polled() {
						q := &list[int(next.Add(1)-1)%len(list)]
						var ans query.Answer
						ans, err = cl.QueryCtx(ctx, *q)
						if err == nil {
							batch = append(batch, check{t0: issue, t1: time.Now().UnixNano(), q: q, lo: ans.Result.Lo, hi: ans.Result.Hi})
							if len(batch) == cap(batch) {
								lo.submit(batch)
								batch = lo.batch()
							}
						}
					} else {
						err = cl.PingCtx(ctx)
					}
					cancel()
					st.attempted++
					if done := time.Now().UnixNano(); err != nil {
						st.failed++
					} else if done < end {
						st.done[min((done-start)/span, closedWindows-1)]++
					}
				}
				if len(batch) > 0 {
					lo.submit(batch)
				}
			}()
		}
	}
	wg.Wait()
	var out closedStats
	for _, p := range per {
		out.add(p)
	}
	return out
}

// stream is one open-loop request schedule: request i is due at
// next + i*period.
type stream struct {
	period, next int64
	n, limit     int
	issue        func(i int, due, now int64)
}

// pace issues every due request of every stream on each wake until end.
func pace(streams []*stream, end int64) {
	for {
		now := time.Now().UnixNano()
		if now >= end {
			break
		}
		wake := end
		for _, s := range streams {
			for s.n < s.limit && s.next <= now && s.next < end {
				s.issue(s.n, s.next, now)
				s.n++
				s.next += s.period
			}
			if s.n < s.limit && s.next < wake {
				wake = s.next
			}
		}
		sleepUntil(wake)
	}
}

func sleepUntil(t int64) {
	if d := time.Duration(t - time.Now().UnixNano()); d > 0 {
		time.Sleep(d)
	}
}
