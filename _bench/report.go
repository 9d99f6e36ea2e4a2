package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line one workload run prints last on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// aggregate is one metric over repeated runs of a workload.
type aggregate struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// workloadSummary is one workload's repeated runs.
type workloadSummary struct {
	Runs    int                  `json:"runs"`
	Correct bool                 `json:"correct"`
	Metrics map[string]aggregate `json:"metrics"`
}

// summary is the -json file: every workload's repeated runs.
type summary struct {
	Seed      int64                      `json:"seed"`
	Trace     int                        `json:"trace"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

// summarize folds repeated results of one workload.
func summarize(results []result) workloadSummary {
	ws := workloadSummary{Runs: len(results), Correct: len(results) > 0, Metrics: map[string]aggregate{}}
	values := map[string][]float64{}
	units := map[string]string{}
	for _, r := range results {
		ws.Correct = ws.Correct && r.Correct
		for name, v := range r.Metrics {
			values[name] = append(values[name], v.Value)
			units[name] = v.Unit
		}
	}
	for name, vs := range values {
		q1, q3 := quartiles(vs)
		ws.Metrics[name] = aggregate{Unit: units[name], Median: median(vs), Q1: q1, Q3: q3, Values: vs}
	}
	return ws
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method (Python's statistics.quantiles(xs, n=4) default).
func quartiles(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spec is the part of BENCHMARK.json the bench and its tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdicts of compare.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
)

// judge compares one metric of one workload. worse is the change's median
// worsening as a share of the parent's median (negative when better). A
// parent whose own spread exceeds the bound cannot resolve the bound, so
// the metric is unresolved unless every change run beats every parent run.
func judge(parent, change aggregate, lowerBetter bool, bound float64) (worse float64, verdict string) {
	sign := 1.0
	if !lowerBetter {
		sign = -1
	}
	worse = sign * (change.Median - parent.Median) / parent.Median
	allBetter := len(change.Values) > 0 && len(parent.Values) > 0
	for _, c := range change.Values {
		for _, p := range parent.Values {
			allBetter = allBetter && sign*(c-p) < 0
		}
	}
	switch {
	case allBetter:
		return worse, verdictBetter
	case (parent.Q3-parent.Q1)/parent.Median > bound:
		return worse, verdictUnresolved
	case worse > bound:
		return worse, verdictRegression
	}
	return worse, verdictOK
}

// compare prints every end-to-end metric of every workload in both files
// and returns the number of regressions.
func compare(sp spec, parent, change summary, out io.Writer) int {
	names := make([]string, 0, len(parent.Workloads))
	for name := range parent.Workloads {
		if _, ok := change.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(out, "%-18s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "parent", "change", "worse", "bound", "verdict")
	for _, name := range names {
		pw, cw := parent.Workloads[name], change.Workloads[name]
		for _, m := range sp.EndToEnd {
			p, okP := pw.Metrics[m.Name]
			c, okC := cw.Metrics[m.Name]
			if !okP || !okC {
				continue
			}
			worse, verdict := judge(p, c, m.Better == "lower", m.Bound)
			if verdict == verdictRegression {
				regressions++
			}
			fmt.Fprintf(out, "%-18s %-20s %14.6g %14.6g %7.2f%% %5.0f%%  %s\n",
				name, m.Name, p.Median, c.Median, 100*worse, 100*m.Bound, verdict)
		}
		if !cw.Correct {
			regressions++
			fmt.Fprintf(out, "%-18s change produced incorrect output\n", name)
		}
	}
	return regressions
}
