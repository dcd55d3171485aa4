// Command benchsuite is the single entry point of the experiment suite:
// it runs any subset of the registered experiments (E1–E12 and ALLOC)
// and writes one machine-readable BENCH_<name>.json per experiment, so the
// repository's benchmark trajectory can be recorded and diffed PR over PR.
//
// Usage:
//
//	go run ./cmd/benchsuite -list
//	go run ./cmd/benchsuite -knobs -quick
//	go run ./cmd/benchsuite -experiments E1,E2 -knob payloads_kb=1
//	go run ./cmd/benchsuite -experiments E5,E8 -out .
//	go run ./cmd/benchsuite -quick -out /tmp/bench          # CI smoke
//	go run ./cmd/benchsuite -experiments E5 -compare old/   # regression deltas
//	go run ./cmd/benchsuite -validate /tmp/bench            # schema check only
//	go run ./cmd/benchsuite -quick -experiments E9 -trace out.json
//
// Every run is deterministic: the same -seed, knobs and code produce
// byte-identical JSON (including the -trace file). -compare loads a
// previous run's files (a directory of BENCH_*.json or a single file) and
// prints point-wise deltas sorted by drift. -knob name=value overrides
// experiment parameters (repeatable); the accepted knobs of each
// experiment are listed by -knobs and in docs/EXPERIMENTS.md and echoed
// in each file's "config" object. -tables prints each result's tables,
// derived config and notes. -trace records per-request span trees and
// queue/CPU/backlog time series across every measurement run and writes
// one Chrome trace-event file (open in chrome://tracing or
// https://ui.perfetto.dev).
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"rubin/internal/bench"
	"rubin/internal/metrics"
	"rubin/internal/obs"
)

// knobFlags collects repeated -knob name=value flags.
type knobFlags map[string]string

func (k knobFlags) String() string {
	var parts []string
	for name, v := range k {
		parts = append(parts, name+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (k knobFlags) Set(s string) error {
	name, value, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("knob %q: want name=value", s)
	}
	k[name] = value
	return nil
}

func main() {
	experiments := flag.String("experiments", "all", "comma-separated experiment names (E1..E12, ALLOC) or 'all'")
	out := flag.String("out", ".", "directory to write BENCH_<name>.json files into")
	quick := flag.Bool("quick", false, "shrink sweeps and message counts (CI smoke mode)")
	seed := flag.Int64("seed", 1, "simulation seed")
	compare := flag.String("compare", "", "previous run to diff against: a BENCH_*.json file or a directory of them")
	validate := flag.String("validate", "", "validate every BENCH_*.json in this directory against the schema, then exit")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON of every measurement run to this file")
	list := flag.Bool("list", false, "list registered experiments and exit")
	listKnobs := flag.Bool("knobs", false, "list each experiment's accepted knobs with effective defaults and exit")
	tables := flag.Bool("tables", true, "print human-readable tables alongside the JSON")
	knobs := knobFlags{}
	flag.Var(knobs, "knob", "experiment knob override, name=value (repeatable)")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-4s %-70s [%s]\n", e.Name, e.Title, e.Figure)
		}
		return
	}
	if *listKnobs {
		rc := bench.DefaultRunContext()
		rc.Quick = *quick
		for _, e := range bench.Experiments() {
			v, err := e.Resolve(rc)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s:\n", e.Name)
			for _, name := range slices.Sorted(maps.Keys(v)) {
				fmt.Printf("  -knob %s=%s\n", name, v.Format(name))
			}
		}
		return
	}
	if *validate != "" {
		if err := validateDir(*validate); err != nil {
			fatal(err)
		}
		return
	}

	names, err := selectExperiments(*experiments)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	rc := bench.DefaultRunContext()
	rc.Seed = *seed
	rc.Quick = *quick
	rc.Knobs = knobs
	if *trace != "" {
		rc.Trace = obs.New(obs.Options{Spans: true})
	}

	failedCompares := 0
	for _, name := range names {
		fmt.Printf("== %s ==\n", name)
		res, err := bench.Run(name, rc)
		if err != nil {
			fatal(err)
		}
		path, err := res.WriteFile(*out)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d series)\n", path, len(res.Series))
		if *tables {
			for _, tab := range res.Tables() {
				fmt.Println(tab.Render())
			}
			printNotes(res)
		}
		if *compare != "" {
			n, err := compareAgainst(*compare, res)
			if err != nil {
				fatal(err)
			}
			failedCompares += n
		}
	}
	if failedCompares > 0 {
		fmt.Fprintf(os.Stderr, "benchsuite: %d comparison(s) could not be made\n", failedCompares)
	}
	if *trace != "" {
		if err := writeTrace(*trace, rc.Trace); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d spans, %d samples, %d runs; %d spans dropped)\n",
			*trace, rc.Trace.SpanCount(), rc.Trace.SampleCount(), rc.Trace.RunCount(), rc.Trace.DroppedSpans())
	}
}

// printNotes prints what the tables leave out: the config entries a run
// derives beyond its knobs (E7's phase and counter indexes, E5's cluster
// label) and every note, such as E7's virtual-time fault timelines.
func printNotes(res *metrics.Result) {
	e, _ := bench.Lookup(res.Experiment)
	knob := map[string]bool{}
	for _, k := range e.Knobs {
		knob[k.Name] = true
	}
	for _, name := range slices.Sorted(maps.Keys(res.Config)) {
		if !knob[name] {
			fmt.Printf("%s: %s\n", name, res.Config[name])
		}
	}
	for _, name := range slices.Sorted(maps.Keys(res.Notes)) {
		fmt.Printf("\n%s:\n%s\n", name, strings.TrimSuffix(res.Notes[name], "\n"))
	}
}

// writeTrace exports the collected span trees and time series as a Chrome
// trace-event file.
func writeTrace(path string, tr *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selectExperiments resolves the -experiments flag against the registry.
func selectExperiments(s string) ([]string, error) {
	if s == "all" {
		var names []string
		for _, e := range bench.Experiments() {
			names = append(names, e.Name)
		}
		return names, nil
	}
	var names []string
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if _, ok := bench.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown experiment %q (use -list)", name)
		}
		names = append(names, name)
	}
	return names, nil
}

// compareAgainst diffs res against the stored baseline at path (a file or
// a directory holding BENCH_<name>.json). A missing baseline for this
// experiment is reported but not fatal; it counts as a failed compare.
func compareAgainst(path string, res *metrics.Result) (failed int, err error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	file := path
	if info.IsDir() {
		file = filepath.Join(path, metrics.ResultFilename(res.Experiment))
	}
	old, err := metrics.ReadResultFile(file)
	if os.IsNotExist(err) {
		fmt.Printf("compare: no baseline %s\n", file)
		return 1, nil
	}
	if err != nil {
		return 0, err
	}
	deltas, err := metrics.Compare(old, res)
	if err != nil {
		return 0, err
	}
	fmt.Printf("deltas vs %s:\n%s\n", file, metrics.RenderDeltas(deltas))
	return 0, nil
}

// validateDir checks every BENCH_*.json below dir against the schema.
func validateDir(dir string) error {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	if len(matches) == 0 {
		return fmt.Errorf("no BENCH_*.json files in %s", dir)
	}
	sort.Strings(matches)
	for _, path := range matches {
		res, err := metrics.ReadResultFile(path)
		if err != nil {
			return err
		}
		want := metrics.ResultFilename(res.Experiment)
		if got := filepath.Base(path); got != want {
			return fmt.Errorf("%s: holds experiment %s (want file name %s)", path, res.Experiment, want)
		}
		fmt.Printf("%s: valid (%s, %d series, seed %d)\n", path, res.Experiment, len(res.Series), res.Seed)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsuite:", err)
	os.Exit(1)
}
