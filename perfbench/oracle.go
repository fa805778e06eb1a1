package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"apcache/internal/workload"
)

// The oracle replays the seeded update schedule and checks every answer
// against it. Round 0 is the seeded initial values; round r >= 1 is the
// child's r-th round, which applied its values between S and E.
//
// An answer whose operation started at time t0 and arrived at t1 is
// consistent when it is consistent with some value of each key in rounds
//
//	[done(t0 - period), started(t1)]
//
// where done(t) is the last round whose Sets had all returned by t and
// started(t) the last round whose Sets had begun by t. The window opens one
// round period before the operation started: that is the slack for a push
// still in flight. Per key, the answer's inputs may come from different
// rounds of the window, so the check is that the answer interval meets the
// interval between the aggregate of the keys' smallest and of their largest
// values in the window. For a standing query t0 = t1 = arrival.
//
// An answer that fails this rule is judged again with the window opened
// pollSlack earlier, [done(t0 - period - pollSlack), started(t1)]. If it
// holds then, it counts as late, not failed; the count is reported.
//
// Every answer must also be no wider than its precision bound: δ for a
// polled query, Δ for a standing one.

// pollSlack is how long a push may wait in the load generator's socket
// before its read loop can run. The generator is one Go process on one P.
// While that P has goroutines to run, the runtime looks for ready sockets
// only when sysmon forces a poll, which it does once no poll has happened
// for 10 ms (runtime/proc.go, "poll network if not polled for more than
// 10ms"); the same 10 ms is how long a goroutine may hold the P before it
// is preempted. So a push that reached the socket can stay unread for that
// long through no fault of the client. In the closed loop, which keeps the
// P busy on purpose, answers missed pushes up to 8.2 ms old, close to the
// 10 ms round of paper_sum.
const pollSlack = 10 * time.Millisecond

// check is one answer to verify.
type check struct {
	t0, t1 int64
	q      *workload.Query
	lo, hi float64
	a, b   int // round window, filled by the oracle
}

// violation describes one failed check.
type violation struct {
	c      check
	reason string
}

func (v violation) String() string {
	return fmt.Sprintf("%v over %d keys δ=%g answer [%g, %g] rounds %d..%d: %s",
		v.c.q.Kind, len(v.c.q.Keys), v.c.q.Delta, v.c.lo, v.c.hi, v.c.a, v.c.b, v.reason)
}

// ringRounds is how many consecutive rounds of values the oracle keeps. An
// answer whose window starts further back fails; at the benchmark's round
// periods that is more than the operation timeout.
const ringRounds = 256

const tol = 1e-6 // float slack for sums computed in another order

// oracle replays the schedule forward and judges answers against it. It
// keeps the values of the last ringRounds rounds, so answers must arrive
// roughly in time order.
type oracle struct {
	sp              Spec
	walks           []*workload.RandomWalk
	ring            [][]float64
	round           int     // the latest round in ring
	started, done   []int64 // round start and end times, round r at r-1
	checked, failed int
	late            int         // held only with the window widened by pollSlack
	bad             []violation // the first maxViolations
}

// maxViolations bounds how many violations an oracle keeps for the report.
const maxViolations = 100

func newOracle(sp Spec, seed int64) *oracle {
	o := &oracle{sp: sp, walks: sp.walks(seed), ring: make([][]float64, ringRounds)}
	o.ring[0] = make([]float64, sp.Keys)
	for k, w := range o.walks {
		o.ring[0][k] = w.Value()
	}
	return o
}

// extend adds rounds logged since the last call; rs is the whole log.
func (o *oracle) extend(rs []roundRec) {
	for _, r := range rs[len(o.started):] {
		o.started = append(o.started, r.S)
		o.done = append(o.done, r.E)
	}
}

// count is the number of rounds with xs[i] <= t, which is the index of the
// last such round (rounds are numbered from 1).
func count(xs []int64, t int64) int {
	return sort.Search(len(xs), func(i int) bool { return xs[i] > t })
}

// ready reports whether the log is long enough to judge an answer that
// arrived at t1: a round has started since.
func (o *oracle) ready(t1 int64) bool {
	n := len(o.started)
	return n > 0 && o.started[n-1] > t1
}

// advance steps the schedule forward to round r.
func (o *oracle) advance(r int) {
	for o.round < r {
		o.round++
		row := o.ring[o.round%ringRounds]
		if row == nil {
			row = make([]float64, o.sp.Keys)
			o.ring[o.round%ringRounds] = row
		}
		for k, w := range o.walks {
			row[k] = w.Step()
		}
	}
}

// check judges one answer, stepping the schedule forward as far as its
// window needs.
func (o *oracle) check(c check) {
	c.a, c.b = count(o.done, c.t0-int64(o.sp.Period)), count(o.started, c.t1)
	o.advance(c.b)
	o.checked++
	if o.judge(c) == "" {
		return
	}
	c.a = count(o.done, c.t0-int64(o.sp.Period+pollSlack))
	reason := o.judge(c)
	if reason == "" {
		o.late++
		return
	}
	o.failed++
	if len(o.bad) < maxViolations {
		o.bad = append(o.bad, violation{c, reason})
	}
}

// judge returns why c fails against the rounds in the ring, or "".
func (o *oracle) judge(c check) string {
	if c.a <= o.round-ringRounds {
		return fmt.Sprintf("window starts %d rounds back, beyond the oracle's %d", o.round-c.a, ringRounds)
	}
	return judge(c, o.ring)
}

// verify checks the n answers item returns against the round log and
// returns the oracle that judged them. Answers are not copied: item is
// called twice per answer.
func verify(sp Spec, seed int64, rounds []roundRec, n int, item func(i int) check) *oracle {
	o := newOracle(sp, seed)
	o.extend(rounds)
	last := make([]int32, n)
	order := make([]int32, n)
	for i := range last {
		last[i] = int32(count(o.started, item(i).t1))
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return last[order[i]] < last[order[j]] })
	for _, i := range order {
		o.check(item(int(i)))
	}
	return o
}

// liveOracle checks answers while the run goes on, for a phase that
// produces too many to keep: producers hand it batches, and it judges each
// answer once the round log covers it.
type liveOracle struct {
	*oracle
	rounds  func() ([]roundRec, error)
	in      chan []check
	free    chan []check
	pending []check
	done    chan error
}

// liveBatch is how many answers a producer hands over at a time.
const liveBatch = 512

// startLiveOracle replays the rounds logged so far before it returns, so the
// checker starts level with the child. Left to the checker goroutine, that
// replay (1000 keys × 1700 rounds on paper_sum) held the load generator's
// only P for tens of milliseconds at the start of the closed loop, the
// client's read loop applied pushes that much later, and local answers
// failed the one-round slack.
func startLiveOracle(sp Spec, seed int64, rounds func() ([]roundRec, error)) (*liveOracle, error) {
	l := &liveOracle{
		oracle: newOracle(sp, seed),
		rounds: rounds,
		// Sized so producers rarely wait on the checker or allocate.
		in:   make(chan []check, 64),
		free: make(chan []check, 64),
		done: make(chan error, 1),
	}
	rs, err := rounds()
	if err != nil {
		return nil, err
	}
	l.extend(rs)
	l.advance(len(l.started))
	go l.loop()
	return l, nil
}

// batch returns an empty batch to fill.
func (l *liveOracle) batch() []check {
	select {
	case b := <-l.free:
		return b
	default:
		return make([]check, 0, liveBatch)
	}
}

// submit hands a filled batch to the checker.
func (l *liveOracle) submit(b []check) { l.in <- b }

// finish waits until every submitted answer has been judged: the caller
// has submitted its last batch, and the child is still logging rounds.
func (l *liveOracle) finish() error {
	close(l.in)
	return <-l.done
}

func (l *liveOracle) loop() {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	in := l.in
	deadline := time.Time{}
	for {
		select {
		case b, ok := <-in:
			if !ok {
				in = nil
				deadline = time.Now().Add(replyTimeout)
				break
			}
			l.pending = append(l.pending, b...)
			select {
			case l.free <- b[:0]:
			default:
			}
		case <-tick.C:
		}
		rs, err := l.rounds()
		if err != nil {
			l.done <- err
			return
		}
		l.extend(rs)
		kept := l.pending[:0]
		for _, c := range l.pending {
			if l.ready(c.t1) {
				l.check(c)
			} else {
				kept = append(kept, c)
			}
		}
		l.pending = kept
		if in == nil {
			if len(l.pending) == 0 {
				l.done <- nil
				return
			}
			if time.Now().After(deadline) {
				l.done <- fmt.Errorf("oracle: round log stopped short of %d answers", len(l.pending))
				return
			}
		}
	}
}

// judge returns why c fails, or "" if it holds.
func judge(c check, ring [][]float64) string {
	if math.IsNaN(c.lo) || math.IsNaN(c.hi) || c.hi < c.lo {
		return "malformed interval"
	}
	if w := c.hi - c.lo; w > c.q.Delta+tol*(1+c.q.Delta) {
		return fmt.Sprintf("width %g exceeds bound %g", w, c.q.Delta)
	}
	if c.b-c.a >= ringRounds {
		return fmt.Sprintf("window of %d rounds exceeds the oracle's %d", c.b-c.a+1, ringRounds)
	}
	var lo, hi float64
	switch c.q.Kind {
	case workload.Sum:
	case workload.Max:
		lo, hi = math.Inf(-1), math.Inf(-1)
	default:
		return fmt.Sprintf("the oracle does not model %v", c.q.Kind)
	}
	for _, k := range c.q.Keys {
		kmin, kmax := math.Inf(1), math.Inf(-1)
		for r := c.a; r <= c.b; r++ {
			v := ring[r%ringRounds][k]
			kmin, kmax = min(kmin, v), max(kmax, v)
		}
		if c.q.Kind == workload.Max {
			lo, hi = max(lo, kmin), max(hi, kmax)
		} else {
			lo, hi = lo+kmin, hi+kmax
		}
	}
	eps := tol * (1 + math.Abs(lo) + math.Abs(hi))
	if c.lo > hi+eps || c.hi < lo-eps {
		return fmt.Sprintf("misses the source aggregate range [%g, %g]", lo, hi)
	}
	return ""
}
