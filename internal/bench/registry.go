// Package bench is the benchmark-suite subsystem: an experiment registry
// regenerating the paper's evaluation and its extensions, with every
// experiment emitting machine-readable results.
//
// Every experiment registers itself from its defining file's init as an
// Experiment value: E1/E2 reproduce Figure 3 (transport micro-benchmark),
// E3/E4 Figure 4 (RUBIN vs Java-NIO selector over the Reptor
// communication stack), E5 the full replicated-system evaluation the
// paper lists as future work, E6 ablations of the Section IV
// optimizations, and E7–E12 plus ALLOC study agreement beyond the paper
// (faults, scaling, traffic, shards, the read fast path, state size and
// hot-path allocations). Run executes one experiment under a RunContext
// (seed, quick mode, cost model, knob overrides) and returns a validated
// metrics.Result; cmd/benchsuite persists those as BENCH_<name>.json and
// diffs them across runs. Knob names and the result schema are documented
// in docs/EXPERIMENTS.md.
package bench

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/obs"
)

// RunContext carries everything an experiment run is parameterized by:
// the simulation seed, the calibrated cost model, a quick/full switch, and
// experiment-specific knob overrides. The zero Knobs map means "defaults";
// Quick shrinks sweeps and message counts for CI smoke runs while keeping
// every code path exercised.
type RunContext struct {
	Seed  int64
	Quick bool
	Model model.Params
	// Knobs overrides experiment-specific parameters by name (the knob
	// names of each experiment are listed in docs/EXPERIMENTS.md and
	// echoed into Result.Config). Unknown knobs are rejected by Run.
	Knobs map[string]string
	// Trace, when non-nil, is the shared span tracer of a -trace suite
	// run: every measurement run records its span tree and time-series
	// samples into it for Chrome-trace export. It is not a knob and is
	// not echoed into Result.Config — with Trace nil the experiments
	// still aggregate the breakdown_* series through run-local tracers.
	Trace *obs.Tracer
}

// DefaultRunContext returns the standard full-fidelity context: seed 1 and
// the calibrated default cost model.
func DefaultRunContext() RunContext {
	return RunContext{Seed: 1, Model: model.Default()}
}

// Knob is one row of an experiment's knob table: an integer (or a
// comma-separated integer list) with its defaults written the way -knob
// takes them, and the smallest value any element may take.
type Knob struct {
	Name string
	// Full is the default; Quick overrides it in quick mode ("" keeps
	// Full). An empty Full marks a default the experiment's Check
	// derives from other knobs.
	Full, Quick string
	Min         int
	List        bool
}

// Values of Knob.List, for readable table rows.
const (
	scalar = false
	list   = true
)

// parse reads one knob value, enforcing the row's shape and minimum.
func (k Knob) parse(s string) ([]int, error) {
	parts := []string{s}
	if k.List {
		parts = strings.Split(s, ",")
	}
	xs := make([]int, len(parts))
	for i, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", part)
		}
		if n < k.Min {
			return nil, fmt.Errorf("%d is below the minimum %d", n, k.Min)
		}
		xs[i] = n
	}
	return xs, nil
}

// KnobValues holds one run's resolved knobs by name; a scalar knob holds
// one element.
type KnobValues map[string][]int

// Int returns a scalar knob.
func (v KnobValues) Int(name string) int { return v.Ints(name)[0] }

// Ints returns a list knob.
func (v KnobValues) Ints(name string) []int {
	xs, ok := v[name]
	if !ok {
		panic(fmt.Sprintf("bench: knob %q was not resolved", name))
	}
	return xs
}

// Format renders a knob the way -knob takes it.
func (v KnobValues) Format(name string) string {
	parts := make([]string, len(v[name]))
	for i, x := range v[name] {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// Experiment is one registered entry of the benchmark suite. Every
// experiment registers itself from its defining file's init, so any
// binary importing internal/bench sees the full suite.
type Experiment struct {
	// Name is the registry key: "E1".."E12" or "ALLOC".
	Name string
	// Title is the one-line human description.
	Title string
	// Figure maps the experiment to the paper figure/section (or the
	// follow-up work) it reproduces.
	Figure string
	// Knobs is the knob table: exactly the accepted knob names (Run
	// rejects any other), resolved once per run and echoed into
	// Result.Config so a stored file documents its own run.
	Knobs []Knob
	// Check, when set, enforces the rules that span several knobs and
	// fills in derived defaults; it runs after every row is parsed.
	Check func(v KnobValues) error
	// Run executes the experiment on the resolved knobs and fills res
	// with series; the registry has already populated identity, seed
	// and the knob echo. Run may add derived config entries (e.g. E5's
	// "cluster" label) on top.
	Run func(rc RunContext, v KnobValues, res *metrics.Result) error
}

// Resolve applies rc's overrides to the knob table: unknown names,
// malformed values and values below a row's minimum are errors, then
// Check runs on the result.
func (e Experiment) Resolve(rc RunContext) (KnobValues, error) {
	names := make([]string, len(e.Knobs))
	for i, k := range e.Knobs {
		names[i] = k.Name
	}
	for name := range rc.Knobs {
		if !slices.Contains(names, name) {
			slices.Sort(names)
			return nil, fmt.Errorf("bench: %s: unknown knob %q (have %s)", e.Name, name, strings.Join(names, ","))
		}
	}
	v := make(KnobValues, len(e.Knobs))
	for _, k := range e.Knobs {
		s, set := rc.Knobs[k.Name]
		if !set {
			s = k.Full
			if rc.Quick && k.Quick != "" {
				s = k.Quick
			}
			if s == "" {
				continue // derived by Check
			}
		}
		xs, err := k.parse(s)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: knob %s=%q: %v", e.Name, k.Name, s, err)
		}
		v[k.Name] = xs
	}
	if e.Check != nil {
		if err := e.Check(v); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.Name, err)
		}
	}
	return v, nil
}

var registry = map[string]Experiment{}

// Register adds an experiment to the registry; it panics on duplicate or
// malformed registrations (these are programmer errors wired at init).
func Register(e Experiment) {
	if e.Name == "" || e.Title == "" || e.Figure == "" || len(e.Knobs) == 0 || e.Run == nil {
		panic(fmt.Sprintf("bench: incomplete experiment registration %+v", e))
	}
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("bench: duplicate experiment %s", e.Name))
	}
	registry[e.Name] = e
}

// Experiments returns all registered experiments sorted by name (numeric
// suffix order: E1..E12, non-E names first).
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		ni, _ := strconv.Atoi(strings.TrimPrefix(out[i].Name, "E"))
		nj, _ := strconv.Atoi(strings.TrimPrefix(out[j].Name, "E"))
		return ni != nj && ni < nj || ni == nj && out[i].Name < out[j].Name
	})
	return out
}

// Lookup returns the named experiment.
func Lookup(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Run executes one experiment under the given context and returns its
// validated machine-readable result.
func Run(name string, rc RunContext) (*metrics.Result, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", name, knownNames())
	}
	v, err := e.Resolve(rc)
	if err != nil {
		return nil, err
	}
	res := metrics.NewResult(e.Name, e.Title, e.Figure, rc.Seed, rc.Quick)
	for k := range v {
		res.SetConfig(k, v.Format(k))
	}
	if err := e.Run(rc, v, res); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	if err := res.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s produced invalid result: %w", name, err)
	}
	return res, nil
}

func knownNames() string {
	var names []string
	for _, e := range Experiments() {
		names = append(names, e.Name)
	}
	return strings.Join(names, ",")
}
