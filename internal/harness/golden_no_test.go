package harness

// Golden snapshot of the network-oblivious substrate: for every NO
// workload at two machine shapes, RunNO's communication, superstep and
// computation counts and its D-BSP time, plus the D-BSP time of the same
// recorded execution re-costed with per-level block sizes (the re-costing
// cmd/tables' D-BSP sweep performs).  Any change to the superstep
// simulator or to a NO algorithm that moves a single count fails here.
//
// Regenerate (only when a count change is intended and reviewed) with
//
//	go test ./internal/harness -run TestGoldenNO -update

import (
	"fmt"
	"path/filepath"
	"testing"
)

// goldenNO is the snapshotted slice of one NO run.
type goldenNO struct {
	Comm       int64   `json:"comm"`
	Supersteps int     `json:"supersteps"`
	Comp       int64   `json:"comp"`
	DBSPTime   float64 `json:"dbspTime"`
	// DBSPLevelB is DBSPTime re-costed with bs[i] = 4 << (i/2): block
	// sizes that differ between cluster levels.
	DBSPLevelB float64 `json:"dbspLevelB"`
}

// goldenNOSizes gives each NO workload its input size.
var goldenNOSizes = map[string]int{
	"mt": 1 << 10, "prefix": 1 << 10, "fft": 1 << 8,
	"sort": 1 << 8, "sort-bitonic": 1 << 10,
	"lr": 1 << 8, "cc": 1 << 8,
	"ngep": 1 << 8, "ngep-d": 1 << 8, "mm": 1 << 8,
}

// goldenNOShapes are the M(p,B) shapes every workload is pinned on.
var goldenNOShapes = []struct{ p, b int }{{4, 2}, {16, 8}}

func measureNO(t *testing.T, algo string, n, p, b int) goldenNO {
	t.Helper()
	res, w, err := runNO(algo, n, p, b)
	if err != nil {
		t.Fatalf("%s n=%d p=%d B=%d: %v", algo, n, p, b, err)
	}
	logP := 0
	for 1<<logP < p {
		logP++
	}
	g := make([]float64, logP)
	bs := make([]int64, logP)
	for i := range g {
		g[i] = float64(int64(1) << uint(logP-i))
		bs[i] = 4 << uint(i/2)
	}
	return goldenNO{
		Comm:       res.Comm,
		Supersteps: res.Supersteps,
		Comp:       res.Comp,
		DBSPTime:   res.DBSPTime,
		DBSPLevelB: w.DBSPTime(g, bs),
	}
}

func TestGoldenNO(t *testing.T) {
	got := map[string]goldenNO{}
	for _, algo := range NOAlgos() {
		n, ok := goldenNOSizes[algo]
		if !ok {
			t.Fatalf("golden NO sizes missing algo %s", algo)
		}
		for _, sh := range goldenNOShapes {
			got[fmt.Sprintf("%s/n%d/p%d/b%d", algo, n, sh.p, sh.b)] = measureNO(t, algo, n, sh.p, sh.b)
		}
	}
	checkGolden(t, filepath.Join("testdata", "golden_no.json"), got)
}
