package sweep

import (
	"errors"
	"strings"
	"testing"
)

// validSpec is the parse-success baseline the error table mutates away
// from.
const validSpec = `{
  "name": "t",
  "algos": ["sort", "mm"],
  "machines": ["hm4"],
  "sizes": [256, 512],
  "seeds": [0, 1],
  "options": ["default", "flat"],
  "hypotheses": [
    {
      "name": "x",
      "kind": "crossover",
      "metric": "misses.L2",
      "subject": {"algo": "mm", "options": "default"},
      "baseline": {"algo": "mm", "options": "flat"},
      "min_ratio": 1.5,
      "at_or_below_n": 512
    },
    {
      "name": "s",
      "kind": "stability",
      "metric": "steps",
      "epsilon": 0.1
    }
  ]
}`

func TestParseValidSpec(t *testing.T) {
	spec, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if got := len(Expand(spec)); got != 2*1*2*2*2 {
		t.Fatalf("grid size = %d, want 16", got)
	}
}

func TestParseNormalizesDefaults(t *testing.T) {
	spec, err := Parse([]byte(`{"algos":["sort"],"machines":["mc3"],"sizes":[64],"options":[""]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Seeds) != 1 || spec.Seeds[0] != 0 {
		t.Errorf("seeds not defaulted to [0]: %v", spec.Seeds)
	}
	if len(spec.Options) != 1 || spec.Options[0] != "default" {
		t.Errorf("empty option name not canonicalized: %v", spec.Options)
	}
	grid := Expand(spec)
	if len(grid) != 1 || grid[0].Options != "default" {
		t.Errorf("grid = %v", grid)
	}
}

// TestParseErrors is the table of rejection cases: every one must come
// back as a *SpecError naming the offending field.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		json  string
		field string // wanted SpecError.Field
		msg   string // substring of the message
	}{
		{
			name:  "malformed json",
			json:  `{"algos": [`,
			field: "json",
			msg:   "malformed",
		},
		{
			name:  "trailing garbage",
			json:  `{"algos":["sort"],"machines":["mc3"],"sizes":[64]} {"again":1}`,
			field: "json",
			msg:   "trailing data",
		},
		{
			name:  "unknown top-level field",
			json:  `{"algoss": ["sort"], "machines": ["mc3"], "sizes": [64]}`,
			field: "algoss",
			msg:   "unknown field",
		},
		{
			name:  "wrong axis type",
			json:  `{"algos": "sort", "machines": ["mc3"], "sizes": [64]}`,
			field: "algos",
			msg:   "want []string",
		},
		{
			name:  "empty algos axis",
			json:  `{"machines": ["mc3"], "sizes": [64]}`,
			field: "algos",
			msg:   "empty axis",
		},
		{
			name:  "unknown algorithm",
			json:  `{"algos": ["sort", "quicksort"], "machines": ["mc3"], "sizes": [64]}`,
			field: "algos[1]",
			msg:   `unknown algorithm "quicksort"`,
		},
		{
			name:  "duplicate algorithm",
			json:  `{"algos": ["sort", "sort"], "machines": ["mc3"], "sizes": [64]}`,
			field: "algos[1]",
			msg:   "duplicate",
		},
		{
			name:  "empty machines axis",
			json:  `{"algos": ["sort"], "sizes": [64]}`,
			field: "machines",
			msg:   "empty axis",
		},
		{
			name:  "unknown machine",
			json:  `{"algos": ["sort"], "machines": ["hm9"], "sizes": [64]}`,
			field: "machines[0]",
			msg:   `unknown machine preset "hm9"`,
		},
		{
			name:  "empty sizes axis",
			json:  `{"algos": ["sort"], "machines": ["mc3"]}`,
			field: "sizes",
			msg:   "empty axis",
		},
		{
			name:  "non-positive size",
			json:  `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64, 0]}`,
			field: "sizes[1]",
			msg:   "positive",
		},
		{
			name:  "duplicate size",
			json:  `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64, 64]}`,
			field: "sizes[1]",
			msg:   "duplicate",
		},
		{
			name:  "duplicate seed",
			json:  `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64], "seeds": [1, 1]}`,
			field: "seeds[1]",
			msg:   "duplicate",
		},
		{
			name:  "unknown option set",
			json:  `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64], "options": ["warp"]}`,
			field: "options[0]",
			msg:   `unknown option set "warp"`,
		},
		{
			name:  "retired option set",
			json:  `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64], "options": ["par2"]}`,
			field: "options[0]",
			msg:   `unknown option set "par2"`,
		},
		{
			name:  "retired pr4steal option set",
			json:  `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64], "options": ["pr4steal"]}`,
			field: "options[0]",
			msg:   `unknown option set "pr4steal"`,
		},
		{
			name:  "duplicate option via normalization",
			json:  `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64], "options": ["", "default"]}`,
			field: "options[1]",
			msg:   "duplicate",
		},
		{
			name: "hypothesis without name",
			json: `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64],
			        "hypotheses": [{"kind": "stability", "metric": "steps", "epsilon": 0.1}]}`,
			field: "hypotheses[0].name",
			msg:   "needs a name",
		},
		{
			name: "unknown hypothesis kind",
			json: `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64],
			        "hypotheses": [{"name": "h", "kind": "anova", "metric": "steps"}]}`,
			field: "hypotheses[0].kind",
			msg:   `unknown kind "anova"`,
		},
		{
			name: "bad metric",
			json: `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64],
			        "hypotheses": [{"name": "h", "kind": "stability", "metric": "misses.LX", "epsilon": 0.1}]}`,
			field: "hypotheses[0].metric",
			msg:   "bad metric",
		},
		{
			name: "crossover without min_ratio",
			json: `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64],
			        "hypotheses": [{"name": "h", "kind": "crossover", "metric": "steps",
			                        "subject": {"algo": "sort"}, "baseline": {"algo": "sort", "options": "flat"}}]}`,
			field: "hypotheses[0].min_ratio",
			msg:   "min_ratio > 0",
		},
		{
			name: "crossover selector without algo",
			json: `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64],
			        "hypotheses": [{"name": "h", "kind": "crossover", "metric": "steps", "min_ratio": 1,
			                        "baseline": {"algo": "sort"}}]}`,
			field: "hypotheses[0].subject.algo",
			msg:   "must pin an algorithm",
		},
		{
			name: "crossover selector off the axis",
			json: `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64],
			        "hypotheses": [{"name": "h", "kind": "crossover", "metric": "steps", "min_ratio": 1,
			                        "subject": {"algo": "mm"}, "baseline": {"algo": "sort"}}]}`,
			field: "hypotheses[0].subject.algo",
			msg:   "not on the algos axis",
		},
		{
			name: "crossover ambiguous machine",
			json: `{"algos": ["sort"], "machines": ["mc3", "hm4"], "sizes": [64],
			        "hypotheses": [{"name": "h", "kind": "crossover", "metric": "steps", "min_ratio": 1,
			                        "subject": {"algo": "sort"}, "baseline": {"algo": "sort", "options": "flat"}}]}`,
			field: "hypotheses[0].subject.machine",
			msg:   "must pin one",
		},
		{
			name: "crossover subject equals baseline",
			json: `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64],
			        "hypotheses": [{"name": "h", "kind": "crossover", "metric": "steps", "min_ratio": 1,
			                        "subject": {"algo": "sort"}, "baseline": {"algo": "sort"}}]}`,
			field: "hypotheses[0].baseline",
			msg:   "same rows",
		},
		{
			name: "stability without epsilon",
			json: `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64], "seeds": [1, 2],
			        "hypotheses": [{"name": "h", "kind": "stability", "metric": "steps"}]}`,
			field: "hypotheses[0].epsilon",
			msg:   "epsilon > 0",
		},
		{
			name: "stability with one seed",
			json: `{"algos": ["sort"], "machines": ["mc3"], "sizes": [64],
			        "hypotheses": [{"name": "h", "kind": "stability", "metric": "steps", "epsilon": 0.1}]}`,
			field: "hypotheses[0].kind",
			msg:   "need >= 2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatal("spec accepted, want rejection")
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *SpecError: %v", err, err)
			}
			if se.Field != tc.field {
				t.Errorf("field = %q, want %q (err: %v)", se.Field, tc.field, err)
			}
			if !strings.Contains(se.Msg, tc.msg) {
				t.Errorf("msg = %q, want substring %q", se.Msg, tc.msg)
			}
		})
	}
}

func TestParseMetric(t *testing.T) {
	good := map[string]metricSel{
		"steps":     {kind: "steps"},
		"work":      {kind: "work"},
		"steals":    {kind: "steals"},
		"misses.L1": {kind: "misses", level: 1},
		"misses.L3": {kind: "misses", level: 3},
		"ratio.L2":  {kind: "ratio", level: 2},
	}
	for in, want := range good {
		got, err := parseMetric(in)
		if err != nil || got != want {
			t.Errorf("parseMetric(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "missteps", "misses", "misses.L0", "misses.L-1", "ratio.Lx", "steps.L1"} {
		if _, err := parseMetric(in); err == nil {
			t.Errorf("parseMetric(%q) accepted, want error", in)
		}
	}
}

func TestExpandOrderAndHashes(t *testing.T) {
	spec, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	grid := Expand(spec)
	// Axis nesting: algos → machines → sizes → options → seeds.
	wantFirst := []string{
		"sort/hm4/n256/default/s0",
		"sort/hm4/n256/default/s1",
		"sort/hm4/n256/flat/s0",
		"sort/hm4/n256/flat/s1",
		"sort/hm4/n512/default/s0",
	}
	for i, want := range wantFirst {
		if got := grid[i].Key(); got != want {
			t.Errorf("grid[%d] = %s, want %s", i, got, want)
		}
	}
	if grid[len(grid)-1].Key() != "mm/hm4/n512/flat/s1" {
		t.Errorf("grid tail = %s", grid[len(grid)-1].Key())
	}
	seen := make(map[string]bool)
	for _, c := range grid {
		h := c.Hash()
		if seen[h] {
			t.Fatalf("duplicate config hash %s for %s", h, c.Key())
		}
		seen[h] = true
	}
}
