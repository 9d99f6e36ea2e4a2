package main

import (
	"io"
	"regexp"
	"sort"
	"testing"
	"time"

	"memshield/internal/fleet"
	"memshield/internal/stats"
)

// tiny shrinks a workload to a few hundred connections on two machines,
// keeping its server, level and scan cadence.
func tiny(w workload) workload {
	w.Conns, w.Machines = 300, 2
	return w
}

// testSeed is not the golden seed, so tiny runs skip the golden check.
const testSeed = 7

func readSpec(t *testing.T) spec {
	t.Helper()
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkNames asserts that a run printed exactly the declared metrics, each
// with its declared unit and a well-formed name.
func checkNames(t *testing.T, res result, declared map[string]string) {
	t.Helper()
	for name, v := range res.Metrics {
		if !namePattern.MatchString(name) {
			t.Errorf("metric name %q is malformed", name)
		}
		unit, ok := declared[name]
		if !ok {
			t.Errorf("metric %q is printed but not declared in BENCHMARK.json", name)
		} else if unit != v.Unit {
			t.Errorf("metric %q printed in %q, declared in %q", name, v.Unit, unit)
		}
	}
	for name := range declared {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %q is declared in BENCHMARK.json but not printed", name)
		}
	}
}

func TestSpecMatchesWorkloads(t *testing.T) {
	sp := readSpec(t)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %v, bench runs %d workloads", names, len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, bench %q", i, names[i], w.Name)
		}
		if _, ok := goldens[w.Name]; !ok {
			t.Errorf("workload %q has no golden", w.Name)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	declared := map[string]string{}
	for _, m := range readSpec(t).EndToEnd {
		declared[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runEndToEnd(tiny(w), testSeed, time.Millisecond, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			checkNames(t, res, declared)
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	declared := map[string]string{}
	for _, m := range readSpec(t).PerLayer {
		declared[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runTraced(tiny(w), testSeed, time.Millisecond, "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Error("traced run marked incorrect")
			}
			checkNames(t, res, declared)
		})
	}
}

// TestReplayTelemetryInvariant checks the replay against the fleet engine
// and that recording spans changes no simulated output.
func TestReplayTelemetryInvariant(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := tiny(w).config(testSeed, fullHorizon)
			cfg.Machines = 1
			want, err := fleet.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			off, err := replay(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			on, err := replay(cfg, rec)
			if err != nil {
				t.Fatal(err)
			}
			if !sameOutput(off, on) {
				t.Errorf("recorder changed the outputs:\noff %+v\non  %+v", off, on)
			}
			if got := uint64(stats.DeriveSeed(0, int64(off.Fingerprint))); got != want.Fingerprint {
				t.Errorf("replay fingerprint %#x, fleet %#x", got, want.Fingerprint)
			}
			if off.Arrivals != want.Arrivals || off.Churns != want.Churns || off.Completed != want.Completed {
				t.Errorf("replay %+v disagrees with fleet %+v", off, want)
			}
			if len(rec.spans) == 0 {
				t.Error("recorder kept no spans")
			}
		})
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "b", Start: 10, End: 40, Parent: 0},
		{Name: "c", Start: 30, End: 60, Parent: 0},  // overlaps b
		{Name: "d", Start: 15, End: 20, Parent: 1},  // grandchild of root
		{Name: "e", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "f", Start: 200, End: 210, Parent: -1},
	}
	// root is covered by [10,60] and [90,100]; d counts against b only.
	want := []int64{40, 25, 30, 5, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	ops := byName(append(spans, span{Name: "f", Start: 300, End: 330, Parent: -1}))
	if f := ops["f"]; f.n() != 2 || f.mean() != 20 || f.quantile(0.5) != 10 || f.quantile(0.99) != 30 {
		t.Errorf("f stats: n %d mean %v p50 %v p99 %v", f.n(), f.mean(), f.quantile(0.5), f.quantile(0.99))
	}
}

func TestGoldenCheck(t *testing.T) {
	w, err := findWorkload("sshd-none-scan")
	if err != nil {
		t.Fatal(err)
	}
	g := goldens[w.Name]
	good := func() *fleet.Result {
		r := &fleet.Result{Fingerprint: g.Fingerprint, Arrivals: g.Arrivals}
		r.Copies.Add(g.KeyCopiesMean)
		return r
	}
	if bad := checkResult(w, goldenSeed, good()); len(bad) != 0 {
		t.Fatalf("golden result rejected: %v", bad)
	}
	tampered := good()
	tampered.Fingerprint ^= 1
	if bad := checkResult(w, goldenSeed, tampered); len(bad) != 1 {
		t.Errorf("tampered fingerprint: %v", bad)
	}
	if bad := checkResult(w, goldenSeed+1, tampered); len(bad) != 0 {
		t.Errorf("goldens applied at another seed: %v", bad)
	}
	shed := good()
	shed.Shed = 1
	if bad := checkResult(w, goldenSeed+1, shed); len(bad) != 1 {
		t.Errorf("shed connection at a held-out seed: %v", bad)
	}
	sealed, err := findWorkload("sshd-sealed-scan")
	if err != nil {
		t.Fatal(err)
	}
	leaked := &fleet.Result{}
	leaked.Copies.Add(1)
	if bad := checkResult(sealed, goldenSeed+1, leaked); len(bad) != 1 {
		t.Errorf("key copy under sealing: %v", bad)
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles %v %v, want 0.75 2.25", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	agg := func(vs ...float64) aggregate {
		q1, q3 := quartiles(vs)
		return aggregate{Median: median(vs), Q1: q1, Q3: q3, Values: vs}
	}
	parent := agg(100, 101, 99, 100, 100)
	cases := []struct {
		name   string
		parent aggregate
		change aggregate
		want   string
	}{
		{"within bound", parent, agg(103, 104, 102, 103, 103), verdictOK},
		{"past bound", parent, agg(110, 111, 109, 110, 110), verdictRegression},
		{"every run better", parent, agg(90, 91, 89, 90, 90), verdictBetter},
		{"noisy parent", agg(80, 120, 100, 90, 110), agg(110, 111, 109, 110, 110), verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := judge(c.parent, c.change, true, 0.05); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if _, got := judge(parent, agg(110, 111, 109, 110, 110), false, 0.05); got != verdictBetter {
		t.Errorf("higher-is-better: %s", got)
	}
}

func TestSummarize(t *testing.T) {
	runs := []result{
		{Correct: true, Metrics: map[string]metricValue{"x": {3, "s"}}},
		{Correct: false, Metrics: map[string]metricValue{"x": {1, "s"}}},
		{Correct: true, Metrics: map[string]metricValue{"x": {2, "s"}}},
	}
	ws := summarize(runs)
	x := ws.Metrics["x"]
	vs := append([]float64(nil), x.Values...)
	sort.Float64s(vs)
	if ws.Correct || ws.Runs != 3 || x.Median != 2 || x.Unit != "s" || len(vs) != 3 || vs[0] != 1 {
		t.Errorf("summary %+v", ws)
	}
}
