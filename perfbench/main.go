// Command perfbench is the repository's benchmark. It generates a products
// knowledge graph from a seed, starts the real rdfanalytics server on it as
// a child process, drives one workload over HTTP from at most two client
// connections, checks every answer against an in-process reference, and
// prints its metrics. With -trace 1 it instead replays the same seeded
// request sequence in process and prints per-layer metrics.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Lines before it, starting with "#", list every figure the run measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// endToEnd and perLayer name the metrics the JSON line carries with
// -trace 0 and -trace 1; BENCHMARK.json lists the same names. rss_mb is
// printed but not gated: the server keeps up to 256 sessions, so its peak
// RSS follows how many users a run completed and swings with throughput.
var endToEnd = []string{"setup_s", "main_p50_ms", "main_tail_ms", "second_ms", "ops_per_s"}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "explore", "explore or mixed-write")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated graph, walks and re-ratings")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced in-process replay and prints per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "rdfanalytics server binary")
	work := flag.String("work", ".bench_build", "directory for generated inputs and server data")
	flag.Parse()
	if err := run(cfg, *trace == 1, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, traced bool, work string) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("need -seconds >= 1")
	}
	cfg.dir = filepath.Join(work, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)
	var (
		o   *outcome
		err error
	)
	switch {
	case traced:
		o, err = runTraced(cfg)
	case cfg.workload == "explore":
		o, err = runExplore(cfg)
	case cfg.workload == "mixed-write":
		o, err = runMixedWrite(cfg)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return err
	}
	for _, n := range o.names {
		m := o.metrics[n]
		fmt.Printf("# %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range o.notes {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate:", n)
	}
	names := endToEnd
	if traced {
		names = perLayer
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := o.metrics[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	line, err := json.Marshal(map[string]any{
		"correct":   o.correct,
		"attempted": o.tally.attempted,
		"failed":    o.tally.bad(),
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
