package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
)

// Spans are recorded by the benchmark's own code around its calls into each
// layer; nothing inside the library is instrumented. A span's id is its
// request id: a query's or ping's schedule slot, a round's index. A
// delivery's parent is the round whose start it followed.
type spanKind uint8

const (
	spanRound    spanKind = iota // one update round in the server child
	spanSet                      // the round's Server.Set loop (child of the round)
	spanQuery                    // one Client.QueryCtx call
	spanPing                     // one Client.PingCtx call
	spanDelivery                 // one WatchQuery answer reaching its consumer
)

var spanNames = [...]string{"server.round", "server.set", "client.query", "client.ping", "watch.delivery"}

type span struct {
	kind       spanKind
	id, parent uint64
	start, end int64 // unix ns
	n          int   // Sets in a round, keys fetched by a query
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// addRounds folds the child's round log in as round spans, each with its Set
// loop as a child span, and links every delivery to the round it followed.
func (t *tracer) addRounds(rounds []roundRec, keys int) {
	for i, r := range rounds {
		id := uint64(i + 1)
		t.spans = append(t.spans,
			span{kind: spanRound, id: id, start: r.T0, end: r.E, n: keys},
			span{kind: spanSet, id: id, parent: id, start: r.S, end: r.E, n: keys})
	}
	starts := make([]int64, len(rounds))
	for i, r := range rounds {
		starts[i] = r.S
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.kind == spanDelivery {
			s.parent = uint64(sort.Search(len(starts), func(j int) bool { return starts[j] > s.end }))
			if s.parent > 0 {
				s.start = starts[s.parent-1]
			}
		}
	}
}

// busy returns, per span kind, the time within [w0, w1] covered by at least
// one span of that kind.
func (t *tracer) busy(w0, w1 int64) map[spanKind]int64 {
	byKind := make(map[spanKind][][2]int64)
	for _, s := range t.spans {
		a, b := max(s.start, w0), min(s.end, w1)
		if b > a {
			byKind[s.kind] = append(byKind[s.kind], [2]int64{a, b})
		}
	}
	out := make(map[spanKind]int64)
	for k, iv := range byKind {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var total, end int64
		for _, x := range iv {
			if x[0] > end {
				total += x[1] - x[0]
				end = x[1]
			} else if x[1] > end {
				total += x[1] - end
				end = x[1]
			}
		}
		out[k] = total
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"start":%d,"end":%d,"n":%d}`+"\n",
			spanNames[s.kind], s.id, s.parent, s.start, s.end, s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
