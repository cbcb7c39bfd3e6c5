package main

import (
	"encoding/json"
	"errors"
	"fmt"

	"oblivhm/internal/harness"
	"oblivhm/internal/sweep"
)

// tables is the cmd/tables path run in-process: the Table II MO grid and
// the mm/sort SB-vs-flat ablation through sweep.Collect, the Table I and
// Table II NO-column rows through harness.RunNO.  Its inputs are the
// paper's fixed grid (the harness builds every input from its own data
// seed), so the workload seed changes nothing here.

// tablesShape sizes the grid.
type tablesShape struct {
	machines []string // machines of the Table II MO rows
	shift    int      // MO sizes are divided by 2^shift (tests only)
	ablN     int      // n of the SB-vs-flat ablation
	tableIM  int      // matrix side of Table I (N-GEP, D vs D*)
}

const tablesWorkers = 2

// moRows are cmd/tables' Table II MO rows at their first size, the size
// of its -quick grid; each becomes one sweep spec.
var moRows = []struct {
	algo string
	n    int
}{
	{"scan", 1 << 12}, {"mt", 1 << 12}, {"mm", 1 << 10}, {"gep", 1 << 10}, {"fft", 1 << 12},
	{"sort", 1 << 11}, {"lr", 1 << 10}, {"spmdv", 1 << 12}, {"cc", 1 << 9},
}

// noRows are cmd/tables' Table II NO-column rows at their first size; each
// runs at p in {4, 16} and B in {2, 8}.
var noRows = []struct {
	algo string
	n    int
}{
	{"mt", 1 << 10}, {"prefix", 1 << 10}, {"fft", 1 << 8}, {"sort", 1 << 8},
	{"sort-bitonic", 1 << 10}, {"lr", 1 << 8}, {"cc", 1 << 8}, {"ngep", 1 << 8},
}

// noCase is one network-oblivious row.
type noCase struct {
	algo    string
	n, p, b int
}

// specTexts renders the MO grid as the JSON specs a user would pass to
// cmd/sweep: one per Table II row, then the ablation.
func (sh tablesShape) specTexts() []string {
	specs := []sweep.Spec{}
	for _, row := range moRows {
		specs = append(specs, sweep.Spec{Algos: []string{row.algo}, Machines: sh.machines, Sizes: []int{row.n >> sh.shift}})
	}
	specs = append(specs, sweep.Spec{Algos: []string{"mm", "sort"}, Machines: []string{"hm4"}, Sizes: []int{sh.ablN}, Options: []string{"default", "flat"}})
	var out []string
	for _, spec := range specs {
		text, _ := json.Marshal(spec) // a Spec of strings and ints always marshals
		out = append(out, string(text))
	}
	return out
}

// noCases is Table I (ngep with D*, ngep-d with D, at p in {4, 8, 16} and
// B in {2, 8}) followed by the Table II NO column.
func (sh tablesShape) noCases() []noCase {
	var out []noCase
	for _, p := range []int{4, 8, 16} {
		for _, b := range []int{2, 8} {
			n := sh.tableIM * sh.tableIM
			out = append(out, noCase{"ngep-d", n, p, b}, noCase{"ngep", n, p, b})
		}
	}
	for _, row := range noRows {
		for _, p := range []int{4, 16} {
			for _, b := range []int{2, 8} {
				out = append(out, noCase{row.algo, row.n, p, b})
			}
		}
	}
	return out
}

func tablesWorkload(sh tablesShape, corrupt bool) *workload {
	texts := sh.specTexts()
	cases := sh.noCases()
	return &workload{
		name: "tables",
		setup: func(_ int64, tr *tracer, parent int) instance {
			sp := tr.begin("setup", parent)
			defer tr.end(sp)
			t := &tablesInstance{cases: cases, corrupt: corrupt}
			for _, text := range texts {
				spec, err := sweep.Parse([]byte(text))
				if err != nil {
					t.err = errors.Join(t.err, fmt.Errorf("spec %s: %w", text, err))
					continue
				}
				t.specs = append(t.specs, spec)
				t.grid += len(sweep.Expand(spec))
			}
			return t
		},
	}
}

type tablesInstance struct {
	specs   []*sweep.Spec
	grid    int // expanded MO grid cells
	cases   []noCase
	err     error // spec errors of the setup
	corrupt bool
}

func (t *tablesInstance) exec(tr *tracer, parent int) pass {
	var p pass
	if t.err != nil {
		p.runs = append(p.runs, runOutcome{err: t.err})
	}
	rowsSeen := 0
	for _, spec := range t.specs {
		id := tr.begin("collect", parent)
		rows, err := sweep.Collect(spec, tablesWorkers)
		tr.end(id)
		if err != nil {
			p.runs = append(p.runs, runOutcome{err: err})
			continue
		}
		rowsSeen += len(rows)
		for _, r := range rows {
			p.runs = append(p.runs, moOutcome(r, t.corrupt && len(p.runs) == 0))
			if r.Err == "" {
				p.accesses += r.Work
				p.vsteps += r.Steps
				p.missL1 += r.Levels[0].MaxMisses
				p.missTop += r.Levels[len(r.Levels)-1].MaxMisses
			}
		}
	}
	if rowsSeen != t.grid {
		p.runs = append(p.runs, runOutcome{err: fmt.Errorf("sweep returned %d rows of a %d-cell grid", rowsSeen, t.grid)})
	}
	for _, c := range t.cases {
		id := tr.begin("no_row", parent)
		res, err := harness.RunNO(c.algo, c.n, c.p, c.b)
		tr.end(id)
		p.runs = append(p.runs, runOutcome{tuple: fmt.Sprintf("comm=%d supersteps=%d", res.Comm, res.Supersteps), err: err})
	}
	return p
}

// moOutcome checks one sweep row: it must have finished without error.
func moOutcome(r sweep.Row, corrupt bool) runOutcome {
	if corrupt {
		r.Err = "corrupted"
	}
	if r.Err != "" {
		return runOutcome{err: fmt.Errorf("%s: %s", r.Key(), r.Err)}
	}
	misses := make([]int64, len(r.Levels))
	for i, l := range r.Levels {
		misses[i] = l.MaxMisses
	}
	return runOutcome{tuple: fmt.Sprintf("steps=%d misses=%v placed=%v steals=%d", r.Steps, misses, r.PlacedAt, r.Steals)}
}
