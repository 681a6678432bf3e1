// Command perfbench is the end-to-end benchmark of the MIRZA simulator: it
// builds and runs the replay and timing simulations the experiments run,
// measures them, and checks every simulated statistic. README.md describes
// the workloads, the metrics and how to read a traced run.
//
//	perfbench --workload replay_mirza --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
)

type options struct {
	w       *workload
	seed    uint64
	seconds int
	traced  bool
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	name := fs.String("workload", "", "workload to run")
	seed := fs.String("seed", strconv.Itoa(defaultSeed), "input seed (unsigned integer)")
	seconds := fs.Int("seconds", 20, "how long to measure, in seconds")
	traced := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	var o options
	var err error
	if o.w, err = lookupWorkload(*name); err != nil {
		return options{}, err
	}
	if o.seed, err = strconv.ParseUint(*seed, 10, 64); err != nil {
		return options{}, fmt.Errorf("malformed seed %q: %w", *seed, err)
	}
	if *seconds < 1 || *seconds > 60 {
		return options{}, fmt.Errorf("seconds must be in [1, 60], got %d", *seconds)
	}
	o.seconds = *seconds
	switch *traced {
	case 0, 1:
		o.traced = *traced == 1
	default:
		return options{}, fmt.Errorf("trace must be 0 or 1, got %d", *traced)
	}
	return o, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The simulators are single-threaded; two procs leave the garbage
	// collector one of its own, on any machine.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark invocation, writing a human-readable report
// to out, and returns the result line.
func run(o options, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%v\n", o.w.name, o.seed, o.seconds, o.traced)
	fmt.Fprintf(out, "machine: %s\n", machine())
	m, err := measure(o, out)
	if err != nil {
		return nil, err
	}
	var values map[string]float64
	defs := endToEnd
	if o.traced {
		values, err = m.attribute(out)
		if err != nil {
			return nil, err
		}
		defs = perLayer
	} else {
		values = m.endToEnd(out)
	}
	res := &result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(out, "metric %-28s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, f := range m.findings {
		fmt.Fprintln(out, "FINDING:", f)
	}
	res.Correct = m.failed == 0 && len(m.findings) == 0
	if !res.Correct {
		fmt.Fprintln(out, "outputs: INCORRECT")
	} else {
		fmt.Fprintln(out, "outputs: correct")
	}
	return res, nil
}
