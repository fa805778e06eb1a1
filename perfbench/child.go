package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"apcache/internal/core"
	"apcache/internal/server"
	"apcache/internal/wal"
)

// The server child is the benchmark's own program around internal/server,
// set up the way cmd/apcache-server sets up its server: the wire has no
// write frame, so updates can only enter through the in-process Server.Set.
// The parent steers it with one-word lines on stdin and reads one-line
// replies on stdout:
//
//	ready <addr> <gomaxprocs>   printed once the keys are seeded and it listens
//	run    start update rounds every Spec.Period
//	mark   reply "mark <snapshot JSON>"
//	stop   reply "stopped", close the server and exit
//
// Every round is logged as it ends, as a line "r <T0> <S> <E> <Due>
// <refreshes>" (see roundRec), so the parent can check answers while the
// run goes on.
//
// The child exits when its stdin closes, so a parent that dies cannot leave
// it serving.
const (
	envChild = "APBENCH_CHILD" // set to "1" in the child's environment
	envSpec  = "APBENCH_SPEC"  // the workload Spec as JSON
	envSeed  = "APBENCH_SEED"
	envWAL   = "APBENCH_WAL" // journal directory, empty without a WAL
)

// snapshot is the child's counters at a mark.
type snapshot struct {
	Wall       int64   // unix ns
	CPUNs      int64   // process user+system CPU
	AllocBytes uint64  // runtime /gc/heap/allocs:bytes
	GCCPUSec   float64 // runtime /cpu/classes/gc/total:cpu-seconds
	Overflows  int     // Server.Stats().PushOverflows
	Merges     int     // Server.Stats().PushMerges
	RefreshNs  int64   // Server.Stats().RefreshCost
	Sets       int64   // Server.Set calls completed
	WALGrowth  int64   // bytes the journal directory grew by, summed per round
	RSSMax     int64   // peak sampled RSS since the previous mark
}

// roundRec is one update round: T0 when it began stepping the walks, S and E
// around its Server.Set loop, Due when the schedule wanted it, and the
// refreshes the Sets reported pushing.
type roundRec struct {
	T0, S, E, Due int64
	Refreshes     int32
}

// parseRound decodes a round line's fields after the "r".
func parseRound(f []string) (roundRec, error) {
	if len(f) != 5 {
		return roundRec{}, fmt.Errorf("round line has %d fields", len(f))
	}
	var a [5]int64
	for i, x := range f {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return roundRec{}, fmt.Errorf("round line: %w", err)
		}
		a[i] = v
	}
	return roundRec{T0: a[0], S: a[1], E: a[2], Due: a[3], Refreshes: int32(a[4])}, nil
}

func childMain() error {
	var sp Spec
	if err := json.Unmarshal([]byte(os.Getenv(envSpec)), &sp); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	seed, err := strconv.ParseInt(os.Getenv(envSeed), 10, 64)
	if err != nil {
		return fmt.Errorf("child seed: %w", err)
	}
	walDir := os.Getenv(envWAL)
	srv, err := server.Open(server.Config{
		Params:        core.Params{Cvr: 1, Cqr: 2, Alpha: 1, Lambda0: 0, Lambda1: math.Inf(1)},
		InitialWidth:  10,
		Seed:          seed,
		FlushInterval: 2 * time.Millisecond,
		WALDir:        walDir,
		WALFsync:      wal.FsyncInterval,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	walks := sp.walks(seed)
	for k, w := range walks {
		srv.SetInitial(k, w.Value())
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	reply := func(format string, args ...any) error {
		fmt.Fprintf(out, format+"\n", args...)
		return out.Flush()
	}
	if err := reply("ready %s %d", addr, runtime.GOMAXPROCS(0)); err != nil {
		return err
	}

	cmds := make(chan string)
	go func() {
		defer close(cmds)
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			cmds <- strings.TrimSpace(sc.Text())
		}
	}()
	var rss rssSampler
	stopRSS := rss.start()
	defer stopRSS()

	var (
		sets       int64
		walGrowth  int64
		walSize    = dirSize(walDir)
		vals       = make([]float64, len(walks))
		period     = int64(sp.Period)
		running    bool
		next       int64
		metricSamp = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	)
	round := func(due int64) error {
		t0 := time.Now().UnixNano()
		for k, w := range walks {
			vals[k] = w.Step()
		}
		s := time.Now().UnixNano()
		n := 0
		for k, v := range vals {
			n += srv.Set(k, v)
		}
		e := time.Now().UnixNano()
		sets += int64(len(vals))
		if walDir != "" {
			size := dirSize(walDir)
			if size > walSize {
				walGrowth += size - walSize
			}
			walSize = size
		}
		return reply("r %d %d %d %d %d", t0, s, e, due, n)
	}
	handle := func(cmd string) (done bool, err error) {
		switch cmd {
		case "run":
			running = true
			next = time.Now().UnixNano() + period
		case "mark":
			metrics.Read(metricSamp)
			st := srv.Stats()
			snap := snapshot{
				Wall:       time.Now().UnixNano(),
				CPUNs:      processCPU(),
				AllocBytes: metricSamp[0].Value.Uint64(),
				GCCPUSec:   metricSamp[1].Value.Float64(),
				Overflows:  st.PushOverflows,
				Merges:     st.PushMerges,
				RefreshNs:  int64(st.RefreshCost),
				Sets:       sets,
				WALGrowth:  walGrowth,
				RSSMax:     rss.reset(),
			}
			b, _ := json.Marshal(snap)
			return false, reply("mark %s", b)
		case "stop":
			return true, reply("stopped")
		default:
			return false, fmt.Errorf("child: unknown command %q", cmd)
		}
		return false, nil
	}

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		var wake <-chan time.Time
		if running {
			if time.Now().UnixNano() >= next {
				// One round per pass, so commands are served between rounds
				// even while the schedule catches up after a sleep overshoot.
				if err := round(next); err != nil {
					return err
				}
				next += period
				select {
				case cmd, ok := <-cmds:
					if !ok {
						return nil // the parent is done with this child
					}
					if done, err := handle(cmd); done || err != nil {
						return err
					}
				default:
				}
				continue
			}
			timer.Reset(time.Duration(next - time.Now().UnixNano()))
			wake = timer.C
		}
		select {
		case cmd, ok := <-cmds:
			if !ok {
				return nil // the parent is done with this child
			}
			if done, err := handle(cmd); done || err != nil {
				return err
			}
		case <-wake:
		}
	}
}

// processCPU returns this process's user+system CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rssSampler tracks the peak resident set size between resets by sampling
// /proc/self/statm, so a mark reports the window's peak rather than the
// process's whole-life maximum.
type rssSampler struct{ peak atomic.Int64 }

func (r *rssSampler) start() (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	r.peak.Store(currentRSS())
	go func() {
		defer close(exited)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.observe(currentRSS())
			}
		}
	}()
	return func() { close(done); <-exited }
}

func (r *rssSampler) observe(v int64) {
	for {
		old := r.peak.Load()
		if v <= old || r.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset returns the peak since the previous reset and starts a new window.
func (r *rssSampler) reset() int64 {
	cur := currentRSS()
	r.observe(cur)
	return r.peak.Swap(cur)
}

func currentRSS() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// dirSize sums the sizes of the regular files directly under dir.
func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
