package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"apcache/internal/workload"
)

// TestMain lets the test binary serve as the server child, the same way
// the benchmark binary re-executes itself.
func TestMain(m *testing.M) {
	if os.Getenv(envChild) != "" {
		if err := childMain(); err != nil {
			os.Stderr.WriteString("server child: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	// The load generator runs on one P, as in the benchmark.
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// tinyRun runs a workload for about two seconds: three set-ups, a short
// warm-up and 1.2 s measured. It keeps the key counts, rates and cache
// sizes, so it checks the workloads the benchmark runs.
func tinyRun(t *testing.T, sp Spec) (runOpts, *phases, *tracer) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	o := runOpts{spec: sp, seed: 7, seconds: 1.2, trace: true, exe: exe, work: t.TempDir(),
		warmup: 200 * time.Millisecond}
	ph, tr, err := run(o)
	if err != nil {
		t.Fatalf("%s: %v", sp.Name, err)
	}
	return o, ph, tr
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// lastJSON decodes the result line a run prints last.
func lastJSON(t *testing.T, out string) (correct bool, metrics map[string]struct {
	Value float64
	Unit  string
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r struct {
		Correct bool
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r.Correct, r.Metrics
}

// TestWorkloadsTiny runs every workload at a tiny size and checks that it
// is correct and prints every metric BENCHMARK.json names, with its unit.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		sp, err := lookupSpec(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		o, ph, tr := tinyRun(t, sp)
		res := evaluate(o, ph, tr)
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.failed, res.attempted, res.examples[:min(len(res.examples), 3)])
		}
		for _, set := range []struct {
			trace bool
			want  []struct{ Name, Unit string }
		}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
			var buf bytes.Buffer
			res.print(&buf, set.trace)
			correct, got := lastJSON(t, buf.String())
			if !correct {
				t.Errorf("%s: result not correct", w.Name)
			}
			if len(got) != len(set.want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, set.trace, len(got), len(set.want))
			}
			for _, m := range set.want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, set.trace, m.Name)
				case g.Unit != m.Unit:
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w.Name, m.Name, g.Unit, m.Unit)
				case !set.trace && !(g.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, g.Value)
				}
			}
		}
	}
}

// TestOracleRejectsCorruptedAnswer corrupts one recorded answer of a real
// run, of each kind, and expects exactly that answer to be rejected on top
// of whatever the run itself got wrong (TestWorkloadsTiny fails on that).
func TestOracleRejectsCorruptedAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	for _, name := range []string{"paper_sum", "standing_cq"} {
		sp, err := lookupSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		o, ph, _ := tinyRun(t, sp)
		clean := evaluate(o, ph, nil)
		var lo, hi *float64
		if sp.polled() {
			r := &ph.open[0][len(ph.open[0])/2]
			lo, hi = &r.lo, &r.hi
		} else {
			g := &ph.cq[0].got[len(ph.cq[0].got)/2]
			lo, hi = &g.lo, &g.hi
		}
		for _, corrupt := range []struct {
			name   string
			lo, hi float64
		}{
			{"shifted", *lo + 1000, *hi + 1000},
			{"too wide", *lo - 1000, *hi + 1000},
		} {
			keepLo, keepHi := *lo, *hi
			*lo, *hi = corrupt.lo, corrupt.hi
			res := evaluate(o, ph, nil)
			if res.violations != clean.violations+1 || res.failed != clean.failed+1 {
				t.Errorf("%s %s answer: %d violations, %d failed; want %d and %d",
					name, corrupt.name, res.violations, res.failed, clean.violations+1, clean.failed+1)
			}
			var buf bytes.Buffer
			res.print(&buf, false)
			if correct, _ := lastJSON(t, buf.String()); correct {
				t.Errorf("%s %s answer: result still reads correct", name, corrupt.name)
			}
			*lo, *hi = keepLo, keepHi
		}
	}
}

// TestJudge pins the oracle's window rule on a hand-made schedule.
func TestJudge(t *testing.T) {
	ring := make([][]float64, ringRounds)
	ring[0] = []float64{0, 10}
	ring[1] = []float64{1, 9}
	ring[2] = []float64{2, 8}
	sum := &workload.Query{Kind: workload.Sum, Keys: []int{0, 1}, Delta: 1}
	max := &workload.Query{Kind: workload.Max, Keys: []int{0, 1}, Delta: 1}
	for _, c := range []struct {
		c    check
		fail bool
	}{
		{check{q: sum, lo: 9.5, hi: 10.5, a: 0, b: 0}, false},
		{check{q: sum, lo: 12.5, hi: 13, a: 0, b: 2}, true}, // no mix of rounds sums above 12
		{check{q: sum, lo: 9, hi: 11, a: 0, b: 2}, true},    // wider than δ
		{check{q: max, lo: 8.2, hi: 8.9, a: 2, b: 2}, true}, // max is 8 in round 2
		{check{q: max, lo: 8.2, hi: 8.9, a: 1, b: 2}, false},
	} {
		if got := judge(c.c, ring) != ""; got != c.fail {
			t.Errorf("%v [%g, %g] rounds %d..%d: failed=%v, want %v", c.c.q.Kind, c.c.lo, c.c.hi, c.c.a, c.c.b, got, c.fail)
		}
	}
}

// TestOracleLateAnswers pins the two windows on a hand-made schedule: an
// answer that misses the one-round window but meets the one widened by
// pollSlack is late, and one that misses both fails.
func TestOracleLateAnswers(t *testing.T) {
	const ms = int64(time.Millisecond)
	o := &oracle{sp: Spec{Keys: 1, Period: 10 * time.Millisecond}, ring: make([][]float64, ringRounds), round: 3}
	for r := 0; r <= 3; r++ {
		o.ring[r] = []float64{float64(r)}
		if r > 0 {
			o.started = append(o.started, int64(r)*10*ms)
			o.done = append(o.done, int64(r)*10*ms+ms)
		}
	}
	// At 35ms the window is rounds [done(25ms), started(35ms)] = [2, 3],
	// widened [done(15ms), started(35ms)] = [1, 3].
	q := &workload.Query{Kind: workload.Sum, Keys: []int{0}, Delta: 1}
	for _, v := range []float64{2.5, 1, 0} {
		o.check(check{t0: 35 * ms, t1: 35 * ms, q: q, lo: v, hi: v})
	}
	if o.checked != 3 || o.late != 1 || o.failed != 1 {
		t.Errorf("checked %d, late %d, failed %d; want 3, 1 and 1", o.checked, o.late, o.failed)
	}
	if len(o.bad) == 1 && (o.bad[0].c.a != 1 || o.bad[0].c.b != 3) {
		t.Errorf("violation reported over rounds %d..%d, want the widened 1..3", o.bad[0].c.a, o.bad[0].c.b)
	}
}

// TestLiveOracle feeds the live oracle a hand-made round log and one good
// and one corrupted answer.
func TestLiveOracle(t *testing.T) {
	sp := Spec{Keys: 2, Period: 10 * time.Millisecond}
	const ms = int64(time.Millisecond)
	var log []roundRec
	for r := int64(1); r <= 5; r++ {
		log = append(log, roundRec{T0: r * 10 * ms, S: r * 10 * ms, E: r*10*ms + ms})
	}
	// At 35ms the window is rounds [done(25ms), started(35ms)] = [2, 3].
	walks := sp.walks(3)
	var sum float64
	for r := 1; r <= 3; r++ {
		sum = 0
		for _, w := range walks {
			sum += w.Step()
		}
	}
	q := &workload.Query{Kind: workload.Sum, Keys: []int{0, 1}, Delta: 1}
	lo, err := startLiveOracle(sp, 3, func() ([]roundRec, error) { return log, nil })
	if err != nil {
		t.Fatal(err)
	}
	b := lo.batch()
	b = append(b, check{t0: 35 * ms, t1: 35 * ms, q: q, lo: sum, hi: sum})
	b = append(b, check{t0: 35 * ms, t1: 35 * ms, q: q, lo: sum + 1000, hi: sum + 1000})
	lo.submit(b)
	if err := lo.finish(); err != nil {
		t.Fatal(err)
	}
	if lo.checked != 2 || lo.failed != 1 {
		t.Errorf("checked %d, failed %d; want 2 and 1", lo.checked, lo.failed)
	}
}
