// Command bench is memshield's benchmark. It runs named fleet workloads
// and prints end-to-end metrics, or with -trace 1 the per-layer metrics
// of a traced single-machine replay and direct layer probes, and checks
// the simulated outputs against pinned goldens. See _bench/README.md.
//
//	bash _bench/run.sh -workload sshd-integrated            # one workload
//	bash _bench/run.sh -workload sshd-integrated -trace 1   # per-layer
//	bash _bench/run.sh -all -repeat 5 -json out.json        # every workload
//	bash _bench/run.sh -compare parent.json change.json     # apply bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	all      bool
	seed     int64
	seconds  float64
	trace    int
	spans    string
	repeat   int
	jsonPath string
	compare  bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run")
	fs.BoolVar(&o.all, "all", false, "run every workload, each in its own process, one after another")
	fs.Int64Var(&o.seed, "seed", goldenSeed, "workload seed; the goldens are checked at 2007")
	fs.Float64Var(&o.seconds, "seconds", 25, "measuring time of one run, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write every span to this JSONL file")
	fs.IntVar(&o.repeat, "repeat", 1, "runs per workload, each in its own process")
	fs.StringVar(&o.jsonPath, "json", "", "write median and quartiles per metric and workload to this file")
	fs.BoolVar(&o.compare, "compare", false, "compare two -json files: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			err = errors.New("-compare takes two files: parent.json change.json")
			break
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case o.trace != 0 && o.trace != 1:
		err = fmt.Errorf("-trace is 0 or 1, not %d", o.trace)
	case o.seconds <= 0 || o.repeat < 1:
		err = errors.New("-seconds and -repeat must be positive")
	case fs.NArg() != 0:
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.all || o.repeat > 1 || o.jsonPath != "":
		return orchestrate(o, stdout, stderr)
	default:
		return runOne(o, stdout, stderr)
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

// runOne runs one workload in this process and prints its result line.
func runOne(o options, stdout, stderr io.Writer) int {
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	var res result
	if o.trace == 1 {
		res, err = runTraced(w, o.seed, budget, o.spans, stderr)
	} else {
		res, err = runEndToEnd(w, o.seed, budget, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// orchestrate re-executes the bench once per workload and repetition, one
// process at a time, so each run's peak RSS is its own.
func orchestrate(o options, stdout, stderr io.Writer) int {
	if o.spans != "" {
		fmt.Fprintln(stderr, "bench: -spans needs a single run")
		return 2
	}
	names := []string{o.workload}
	if o.all {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, err := findWorkload(o.workload); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sum := summary{Seed: o.seed, Trace: o.trace, Workloads: map[string]workloadSummary{}}
	status := 0
	for _, name := range names {
		var results []result
		for i := 0; i < o.repeat; i++ {
			res, err := runChild(exe, name, o, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s run %d: %v\n", name, i+1, err)
				status = 1
			}
			if res.Metrics != nil {
				results = append(results, res)
			}
		}
		ws := summarize(results)
		sum.Workloads[name] = ws
		printSummary(stderr, name, ws)
	}
	if o.jsonPath != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(o.jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process and parses the last line
// of its standard output, which it also copies to stdout.
func runChild(exe, name string, o options, stdout, stderr io.Writer) (result, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe, "-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace))
	cmd.Stdout = io.MultiWriter(&out, stdout)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if last == "" {
		return res, errors.Join(runErr, errors.New("no result line"))
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, errors.Join(runErr, fmt.Errorf("result line: %w", err))
	}
	return res, runErr
}

func printSummary(w io.Writer, name string, ws workloadSummary) {
	fmt.Fprintf(w, "== %s: %d runs, correct %v\n", name, ws.Runs, ws.Correct)
	keys := make([]string, 0, len(ws.Metrics))
	for k := range ws.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := ws.Metrics[k]
		spread := 0.0
		if a.Median != 0 {
			spread = 100 * (a.Q3 - a.Q1) / a.Median
		}
		fmt.Fprintf(w, "   %-36s %14.6g %-6s  IQR %.2f%%\n", k, a.Median, a.Unit, spread)
	}
}

func runCompare(parentPath, changePath string, stdout, stderr io.Writer) int {
	var sp spec
	var parent, change summary
	for path, v := range map[string]any{"BENCHMARK.json": &sp, parentPath: &parent, changePath: &change} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if n := compare(sp, parent, change, stdout); n > 0 {
		fmt.Fprintf(stdout, "%d regressions\n", n)
		return 1
	}
	return 0
}
