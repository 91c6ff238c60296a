package rig

import (
	"testing"

	"locsvc/bench/gen"
)

// Each workload runs for about a second on a tiny population: the
// benchmark keeps compiling against the service, no op fails and every
// answer check passes. The traced pass is skipped under -short.
func TestSmoke(t *testing.T) {
	for _, spec := range gen.Workloads() {
		spec := spec.Scaled(2000, 100)
		spec.PacedRate /= 4
		t.Run(spec.Name, func(t *testing.T) {
			passes := map[string]func(gen.Deploy, *gen.Gen, []*gen.Stream, string) (Result, error){
				"end_to_end": func(d gen.Deploy, g *gen.Gen, s []*gen.Stream, dir string) (Result, error) {
					return EndToEnd(d, g.Initial(), s, dir, 1)
				},
			}
			if !testing.Short() {
				passes["layers"] = func(d gen.Deploy, g *gen.Gen, s []*gen.Stream, dir string) (Result, error) {
					return Layers(d, g.Initial(), s, dir, 1)
				}
			}
			for name, pass := range passes {
				g := gen.New(spec, 1)
				streams := []*gen.Stream{g.Stream(0), g.Stream(1)}
				res, err := pass(spec.Deploy, g, streams, t.TempDir())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("%s: %d of %d ops failed: %v %v", name, res.Failed, res.Attempted, res.Causes, res.Examples)
				}
				seen := make(map[string]bool)
				for _, m := range res.Metrics {
					if seen[m.Name] {
						t.Errorf("%s: metric %s reported twice", name, m.Name)
					}
					seen[m.Name] = true
				}
				if name == "end_to_end" {
					for _, want := range []string{"setup_s", "ops_per_s"} {
						if !seen[want] {
							t.Errorf("%s: metric %s missing", name, want)
						}
					}
				} else {
					if len(res.Spans) == 0 {
						t.Errorf("%s: no spans recorded", name)
					}
					if !seen["update_p50_ms"] || !seen["store.put_us"] {
						t.Errorf("%s: per-layer metrics missing", name)
					}
				}
			}
		})
	}
}

// A wrong answer must be caught: move the ground truth of every object
// away from where the service has it and the position check has to fail.
func TestChecksCatchWrongAnswers(t *testing.T) {
	spec, err := gen.Lookup("city_queries")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(500, 0)
	g := gen.New(spec, 1)
	w, err := Setup(spec.Deploy, g.Initial(), t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := range w.truth {
		p := unpack(w.truth[i].pos.Load())
		p.X += 100
		w.truth[i].pos.Store(pack(p))
	}
	ph := w.Run([]*gen.Stream{g.Stream(0), g.Stream(1)}, gen.Streams, 200e6, 0, 1)
	if ph.Causes["wrong_answer"] == 0 {
		t.Fatalf("no wrong answer reported after corrupting the ground truth: %v", ph.Causes)
	}
}
