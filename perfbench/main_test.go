package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"hetbench/internal/service"
	"hetbench/internal/workload"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json's metric lists
// and the program's declared metrics in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	// setup_s is measured by run.py, outside the program.
	want := append([]struct{ name, unit string }{{"setup_s", "s"}}, endToEnd...)
	compare := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		byName := map[string]string{}
		for _, m := range got {
			byName[m.Name] = m.Unit
		}
		for _, w := range want {
			if u, ok := byName[w.name]; !ok || u != w.unit {
				t.Errorf("%s: %s (%s) missing or in another unit in BENCHMARK.json", kind, w.name, w.unit)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, want)
	compare("per_layer", b.PerLayer, perLayer)
}

func TestReferenceSections(t *testing.T) {
	transcript := "=== fig7 — x ===\nseven\n\n=== fig8 — y ===\neight\n\n=== fig9 — z ===\nnine\n\n"
	got, err := referenceSections(transcript, []string{"fig8", "fig9"})
	if err != nil {
		t.Fatal(err)
	}
	if got["fig8"] != "eight\n\n" || got["fig9"] != "nine\n\n" {
		t.Errorf("sections = %q", got)
	}
	if _, err := referenceSections(transcript, []string{"fig10"}); err == nil {
		t.Error("a missing section must be an error")
	}
}

func TestGeneratedJobsAreValidDistinctAndSeeded(t *testing.T) {
	a, b := newGenerator(7), newGenerator(7)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		ja, err := a.next()
		if err != nil {
			t.Fatal(err)
		}
		jb, _ := b.next()
		if string(ja.spec) != string(jb.spec) || ja.launch != jb.launch {
			t.Fatalf("job %d differs between two generators of one seed", i)
		}
		if _, err := workload.Parse(ja.spec); err != nil {
			t.Fatalf("job %d: %v\n%s", i, err, ja.spec)
		}
		body := strings.SplitN(string(ja.spec), ",", 2)[1] // past the unique name
		if seen[body] {
			t.Fatalf("job %d repeats an earlier spec", i)
		}
		seen[body] = true
	}
}

func TestCheckSetDigest(t *testing.T) {
	st, err := checkSet()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.hex(); got != checkDigest {
		t.Errorf("check set hashes to %s, want %s", got, checkDigest)
	}
}

func TestArrivalsMix(t *testing.T) {
	plan := arrivals(3, 20)
	hits, misses, abandoned := 0, 0, 0
	keys := map[string]bool{}
	hot := map[string]bool{}
	for _, r := range hotSet() {
		hot[service.Key(r)] = true
	}
	for i, a := range plan {
		if i > 0 && a.at < plan[i-1].at {
			t.Fatal("arrivals out of order")
		}
		if a.at < 0 || a.at.Seconds() >= 20 {
			t.Fatalf("arrival at %v outside the run", a.at)
		}
		k := service.Key(a.req)
		switch {
		case a.hit:
			hits++
			if !hot[k] {
				t.Fatalf("hit on a key outside the hot set: %+v", a.req)
			}
		default:
			misses++
			if a.abandon {
				abandoned++
			}
			if keys[k] || hot[k] {
				t.Fatalf("miss key %+v is not fresh", a.req)
			}
			keys[k] = true
		}
	}
	if misses%len(missExperiments) != 0 || abandoned != abandonedMisses || hits != hitsPerMiss*(misses-abandoned) {
		t.Errorf("mix: %d hits, %d misses, %d abandoned", hits, misses, abandoned)
	}
	if again := arrivals(3, 20); len(again) != len(plan) || again[len(again)-1] != plan[len(plan)-1] {
		t.Error("arrivals are not a function of the seed")
	}
}
