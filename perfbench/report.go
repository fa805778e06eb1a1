package main

import (
	"fmt"
	"os"
)

// runReport runs the workload untraced, then traced, and prints both sets of
// numbers, the tracing overhead (traced minus untraced, end to end), and a
// layer-by-layer account of the bounded-query latency.
func runReport(o runOpts) error {
	o.trace = false
	plain, err := runOnce(o)
	if err != nil {
		return err
	}
	o.trace = true
	traced, err := runOnce(o)
	if err != nil {
		return err
	}
	plain.print(os.Stdout, false)
	traced.print(os.Stdout, true)
	fmt.Println("# tracing overhead (traced - untraced, end to end):")
	for _, m := range plain.measuredEndToEnd() {
		t, _ := traced.find(m.name)
		fmt.Printf("#   %-20s %12.4f -> %12.4f %-8s (%+.1f%%)\n", m.name, m.value, t.value, m.unit, 100*(t.value-m.value)/m.value)
	}
	layer := func(name string) float64 {
		m, _ := traced.find(name)
		return m.value
	}
	if o.spec.polled() {
		// A query is answered locally, or pays one round trip (the ping
		// floor: wire plus connection core) and the server's per-key refresh
		// cost for every key it fetches.
		local := layer("query.local_frac")
		ping := layer("client.ping_us_p50")
		keys := layer("query.fetched_keys_per_query")
		cost := layer("server.refresh_cost_ns") / 1e3
		remote := 0.0
		if local < 1 {
			remote = keys / (1 - local)
		}
		fmt.Println("# query latency, layer by layer (traced run):")
		fmt.Printf("#   %.1f%% of queries are answered from the cache with no round trip: p50 %.1f us\n", 100*local, traced.localP50)
		fmt.Printf("#   a fetching query: ping floor %.1f us + %.2f keys x refresh cost %.2f us = %.1f us; measured p50 %.1f us\n",
			ping, remote, cost, ping+remote*cost, traced.fetchP50)
		fmt.Printf("#   e2e.latency_p50_us %.1f is the %.0fth percentile of the fetching queries\n",
			layer("e2e.latency_p50_us"), 100*max(0, (0.5-local)/(1-local)))
	}
	if err := plain.err(); err != nil {
		return fmt.Errorf("untraced run: %w", err)
	}
	if err := traced.err(); err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	return nil
}
