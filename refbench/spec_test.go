package main

import (
	"regexp"
	"testing"
)

// TestBenchmarkSpec checks BENCHMARK.json against the limits the
// harness and its runner rely on.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, name)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range spec.Workloads {
		use("workload", w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	if len(workloads) != len(spec.Workloads) {
		t.Errorf("%d runners for %d workloads", len(workloads), len(spec.Workloads))
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use("end-to-end metric", m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end setup_s metric with unit "s" and better "lower"`)
	}
	for _, m := range spec.PerLayer {
		use("per-layer metric", m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
}
