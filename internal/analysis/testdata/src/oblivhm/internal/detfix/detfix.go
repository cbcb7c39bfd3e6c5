// Package detfix exercises the determinism analyzer: wall-clock reads,
// unseeded randomness, map iteration, sync.Map, goroutine spawns and
// writes to package-level variables, with seeded/annotated/local
// counterparts that must stay silent.
package detfix

import (
	"math/rand"
	"sync"
	"time"
)

// Clock reads the wall clock.
func Clock() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

// GlobalRand draws from the global unseeded source.
func GlobalRand() int {
	return rand.Intn(10) // want `draws from the global unseeded source`
}

// SeededRand threads an explicit seed: the sanctioned convention.
func SeededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// MapOrder folds over a map in iteration order.
func MapOrder(m map[string]int) int {
	total := 0
	for _, v := range m { // want `iteration over a map`
		total -= v
	}
	return total
}

// SyncMapUse declares a sync.Map.
func SyncMapUse() {
	var m sync.Map // want `sync\.Map use`
	m.Store(1, 2)
}

// Spawn launches an unsanctioned goroutine.
func Spawn(fn func()) {
	go fn() // want `go statement outside the sanctioned`
}

// SanctionedSpawn carries the escape hatch with a reason.
func SanctionedSpawn(fn func()) {
	//oblivcheck:allow determinism: fixture for the annotation escape hatch
	go fn()
}

// SortedKeys is the annotated order-independent collection idiom.
func SortedKeys(m map[string]int) []string {
	var ks []string
	//oblivcheck:allow determinism: key collection, sorted by the caller
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// Package-level state: written only by init, everything else is flagged.
var (
	runs    int
	ids     = map[string]int{}
	events  []string
	table   [4]int
	global  stats
	shared  = &stats{}
	started time.Time
)

type stats struct{ n int }

// init may set package state, but every other determinism check still
// applies inside it.
func init() {
	runs = 0 // package initialisation may set package state
	ids["seed"] = 1
	events = append(events, "init")
	delete(ids, "unused")
	started = time.Now() // want `time\.Now reads the wall clock`
	runs = rand.Intn(10) // want `draws from the global unseeded source`
	for k := range ids { // want `iteration over a map`
		events = append(events, k)
	}
	go Counter() // want `go statement outside the sanctioned`
}

// Counter bumps a package counter.
func Counter() int {
	runs++ // want `write to package-level variable runs outside init`
	return runs
}

// Intern assigns ids from a package map, the way a cross-run routing
// table would.
func Intern(k string) int {
	if id, ok := ids[k]; ok {
		return id
	}
	ids[k] = len(ids) // want `write to package-level variable ids`
	return ids[k]
}

// Record appends to a package slice.
func Record(s string) {
	events = append(events, s) // want `write to package-level variable events`
}

// Stores writes through an element, a field and a pointer field.
func Stores() {
	table[0] = 1         // want `write to package-level variable table`
	global.n = 2         // want `write to package-level variable global`
	shared.n += 3        // want `write to package-level variable shared`
	*shared = stats{}    // want `write to package-level variable shared`
	for runs = range 3 { // want `write to package-level variable runs`
	}
}

// Builtins mutate package state through their first argument.
func Builtins() {
	delete(ids, "seed")      // want `delete on package-level variable ids`
	clear(table[:])          // want `clear on package-level variable table`
	copy(table[:], []int{1}) // want `copy on package-level variable table`
}

// Qualified writes another package's variable.
func Qualified() {
	time.Local = time.UTC // want `write to package-level variable Local`
}

// LocalState shadows, reads and builds local values: all silent.
func LocalState(st *stats) int {
	runs := 1
	runs++
	ids := map[string]int{}
	ids["a"] = runs
	s := stats{}
	s.n = len(events) + table[0] + global.n + shared.n
	st.n++
	buf := append([]string(nil), events...)
	return s.n + ids["a"] + len(buf)
}

// SanctionedReset carries the escape hatch with a reason.
func SanctionedReset() {
	//oblivcheck:allow determinism: fixture for the annotation escape hatch
	runs = 0
}
