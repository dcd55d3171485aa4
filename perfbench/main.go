// Command perfbench is the repository benchmark: PBFT N=4 groups with a
// replicated key-value store, driven by open-loop traffic over RUBIN
// (rdma-rubin) and its Java-NIO baseline (tcp-nio), plus a leader-crash
// recovery arc. It measures the simulated system in virtual time and
// the harness in real time and memory.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it:
//
//	bash perfbench/run.sh --workload kv-rubin --seed 1 --seconds 12 --trace 0
//
// Every scenario runs in a fresh child process of this binary, one at a
// time, so a child's peak resident memory is its own. The last line of
// standard output is one JSON object with the run's verdict and metrics;
// the lines before it print every metric by name with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "minimum wall seconds of the nominal phase")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	outDir := fs.String("out", ".bench_build/perfbench-out", "directory for span logs and CPU profiles")
	child := fs.String("child", "", "internal: run one scenario in this process (nominal, probe or traced)")
	rate := fs.Float64("rate", 0, "internal: offered rate of a probe scenario")
	ops := fs.Int("ops", 0, "internal: measured operations of the scenario (0 keeps the workload's)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *child != "" {
		res, err := runChild(w, *child, *seed, *rate, *ops, *outDir)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench child:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "perfbench child:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	h, err := newHarness(w, *seed, *outDir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var rep report
	if *trace == 1 {
		rep, err = h.traced()
	} else {
		rep, err = h.nominal(*seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.print(stdout)
	return 0
}
