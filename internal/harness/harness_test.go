package harness

import (
	"strings"
	"sync"
	"testing"
)

func TestRunMOAllAlgos(t *testing.T) {
	for _, algo := range MOAlgos() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			n := 1 << 10
			if algo == "cc" || algo == "lr" || algo == "lr-wyllie" {
				n = 1 << 8
			}
			res, err := RunMO(algo, "mc3", n)
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps <= 0 || res.Work <= 0 {
				t.Fatalf("no work recorded: %+v", res)
			}
			if len(res.Levels) != 2 {
				t.Fatalf("mc3 has 2 cache levels, reported %d", len(res.Levels))
			}
			for _, l := range res.Levels {
				if l.Predicted <= 0 {
					t.Errorf("L%d predicted = %v", l.Level, l.Predicted)
				}
			}
			if s := res.String(); !strings.Contains(s, algo) {
				t.Errorf("String() missing algo name: %q", s)
			}
		})
	}
}

func TestRunMOUnknowns(t *testing.T) {
	if _, err := RunMO("nope", "mc3", 64); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := RunMO("mt", "nope", 64); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestRunNOAllAlgos(t *testing.T) {
	for _, algo := range NOAlgos() {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			res, err := RunNO(algo, 1<<8, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			if res.Supersteps <= 0 {
				t.Fatalf("no supersteps: %+v", res)
			}
			if res.Comm < 0 || res.Predicted <= 0 {
				t.Fatalf("bad accounting: %+v", res)
			}
			if s := res.String(); !strings.Contains(s, algo) {
				t.Errorf("String() missing algo name: %q", s)
			}
		})
	}
}

func TestRunNOUnknown(t *testing.T) {
	if _, err := RunNO("nope", 64, 4, 2); err == nil {
		t.Error("unknown NO algorithm accepted")
	}
}

// TestRunNOConcurrent runs N-GEP on two goroutines at once.  The NO
// substrate keeps all run state on the World and the Engine, so concurrent
// runs share nothing (the race detector checks it) and agree with each
// other.
func TestRunNOConcurrent(t *testing.T) {
	var got [2]NOResult
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = RunNO("ngep", 64, 16, 4)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got[0] != got[1] {
		t.Errorf("concurrent runs disagree:\n  %v\n  %v", got[0], got[1])
	}
}

// TestMORatioStability is the harness-level shape check behind
// EXPERIMENTS.md: for the flagship rows, measured/predicted stays within a
// bounded band when the input quadruples.
func TestMORatioStability(t *testing.T) {
	for _, algo := range []string{"mt", "scan", "spmdv"} {
		r1, err := RunMO(algo, "mc3", 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RunMO(algo, "mc3", 1<<14)
		if err != nil {
			t.Fatal(err)
		}
		a, b := r1.Levels[1].Ratio, r2.Levels[1].Ratio
		if b > 3*a+1 {
			t.Errorf("%s: L2 ratio jumped %0.2f -> %0.2f over 4x size", algo, a, b)
		}
	}
}
