package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"nlexplain/internal/dcs"
	"nlexplain/internal/table"
	"nlexplain/internal/workload"
)

func TestOpStreamHashIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, b := hashOps(sp.build(1), 40), hashOps(sp.build(1), 40)
			if a != b {
				t.Fatalf("seed 1 hashed to %s and then %s", a, b)
			}
			if c := hashOps(sp.build(2), 40); c == a {
				t.Fatalf("seeds 1 and 2 both hashed to %s", a)
			}
		})
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 20000; n++ {
		p, ok := tailPercentile(n)
		if !ok {
			if n >= 2*minBeyond {
				t.Fatalf("n=%d: no tail percentile", n)
			}
			continue
		}
		if beyond := n - rank(p, n); beyond < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, p, beyond)
		}
		for _, higher := range tailLadder {
			if higher > p && n-rank(higher, n) >= minBeyond {
				t.Fatalf("n=%d: chose p%g but p%g also leaves %d beyond", n, p, higher, minBeyond)
			}
		}
	}
}

// benchmarkFile is the subset of BENCHMARK.json the metric names are
// checked against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []string, want []string) {
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("%s: benchmark reports %v, BENCHMARK.json lists %v", what, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: benchmark reports %v, BENCHMARK.json lists %v", what, got, want)
			}
		}
	}
	var got, want []string
	for _, sp := range specs {
		got = append(got, sp.name)
	}
	for _, w := range bf.Workloads {
		want = append(want, w.Name)
	}
	same("workloads", got, want)
	for _, set := range []struct {
		what string
		defs []metricDef
		file []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer, bf.PerLayer}} {
		got, want = nil, nil
		for _, m := range set.defs {
			if !metricName.MatchString(m.name) {
				t.Errorf("%s: malformed metric name %q", set.what, m.name)
			}
			got = append(got, m.name+" "+m.unit)
		}
		for _, m := range set.file {
			want = append(want, m.Name+" "+m.Unit)
		}
		same(set.what, got, want)
	}
}

func TestDistinctQueryKeepsTheAnswer(t *testing.T) {
	corpus := workload.NewCorpusSized(7, 5000)
	big, _ := corpus.Table(workload.TableBig)
	mix, _ := workload.MixByName("bigtable")
	gen := workload.NewGenerator(7, mix, corpus)
	for i := range 60 {
		orig := gen.Next().Query
		rewritten := distinctQuery(orig, i)
		if want, got := execute(t, orig, big), execute(t, rewritten, big); got != want {
			t.Fatalf("%q answers %s, its rewrite %q answers %s", orig, want, rewritten, got)
		}
	}
}

func execute(t *testing.T, query string, tab *table.Table) string {
	t.Helper()
	q, err := dcs.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dcs.Execute(q, tab)
	if err != nil {
		t.Fatal(err)
	}
	return res.String()
}
