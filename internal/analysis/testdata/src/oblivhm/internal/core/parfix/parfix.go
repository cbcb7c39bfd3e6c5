// Package parfix pins the determinism analyzer's goroutine rule inside the
// engine scope: the real internal/core carries one sanctioned engine `go`
// site (the strand coroutine launch in runStrand), annotated with the
// lockstep-handoff argument — and this fixture proves that a NEW,
// unsanctioned `go` statement in internal/core still fails the check, so
// the annotation is a per-site escape hatch, not a package-wide waiver.
package parfix

// strand is a stub of the engine's schedulable unit.
type strand struct {
	resume chan int64
	yield  chan struct{}
}

func (st *strand) main() {
	<-st.resume
	st.yield <- struct{}{}
}

// StrandLaunch mirrors the sanctioned site in engine.go: the annotation
// cites the argument that makes the concurrency unobservable.
func StrandLaunch(st *strand) {
	//oblivcheck:allow determinism: strand coroutine — lockstep resume/yield handoff, exactly one strand runs at a time, so the schedule is independent of OS interleaving
	go st.main()
}

// UnsanctionedLaunch is the regression the rule exists for: engine code
// spawning a goroutine without an equivalence argument.
func UnsanctionedLaunch(st *strand) {
	go st.main() // want `go statement outside the sanctioned`
}
