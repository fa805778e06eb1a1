// Command perfbench is apcache's end-to-end benchmark. For one workload it
// starts a server child process on 127.0.0.1, plays a seeded update
// schedule into it, drives it from this process (GOMAXPROCS=1) over
// loopback TCP through internal/client, checks every answer against the
// schedule, and prints every metric by name with its unit and sample
// count. The last line of standard output is the result as JSON.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper_sum --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --report --workload paper_sum --seed 1 --seconds 20
//
// --trace 1 records spans around the calls into each layer and reports the
// per-layer metrics instead of the end-to-end ones. --report runs a workload
// untraced and then traced and prints both, the tracing overhead, and a
// layer-by-layer account of the query latency.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

func main() {
	if os.Getenv(envChild) != "" {
		if err := childMain(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench server child:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measured seconds: open-loop phase (3/4) plus closed-loop phase (1/4)")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		report  = flag.Bool("report", false, "run untraced then traced and report the tracing overhead")
		work    = flag.String("work", ".bench_build/run", "directory for journals and trace files")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace == 1, *report, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		killAll()
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace, report bool, work string) error {
	sp, err := lookupSpec(name)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	// The load generator is one process on one P.
	runtime.GOMAXPROCS(1)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()
	o := runOpts{spec: sp, seed: seed, seconds: seconds, trace: trace, exe: exe, work: work,
		setupFor: setupFor, warmup: warmup}
	if report {
		return runReport(o)
	}
	res, err := runOnce(o)
	if err != nil {
		return err
	}
	res.print(os.Stdout, trace)
	return res.err()
}

// err reports a run with failed operations, after its result is printed.
func (r *result) err() error {
	if r.failed > 0 {
		return fmt.Errorf("%d of %d operations failed, %d of them oracle violations", r.failed, r.attempted, r.violations)
	}
	return nil
}

// runOnce runs and evaluates one workload; a traced run also writes its
// spans under o.work.
func runOnce(o runOpts) (*result, error) {
	ph, tr, err := run(o)
	if err != nil {
		return nil, err
	}
	res := evaluate(o, ph, tr)
	for _, m := range res.measuredEndToEnd() {
		if !(m.value > 0) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("end-to-end metric %s measured %v", m.name, m.value)
		}
	}
	if tr != nil {
		path := filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d.jsonl", o.spec.Name, o.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	}
	return res, nil
}
