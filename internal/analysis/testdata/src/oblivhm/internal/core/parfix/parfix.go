// Package parfix pins the determinism analyzer's goroutine rule inside the
// engine scope.  The real internal/core runs its strands as coroutines and
// has no engine `go` site; its only `go` statements are the native
// executor's annotated worker spawns.  This fixture proves both halves of
// the rule: an annotated `go` statement citing its equivalence argument is
// accepted, and a NEW, unsanctioned `go` statement in internal/core still
// fails the check, so the annotation is a per-site escape hatch, not a
// package-wide waiver.
package parfix

// worker is a stub of a goroutine body the engine might be tempted to spawn.
type worker struct {
	done chan struct{}
}

func (w *worker) run() { close(w.done) }

// SanctionedLaunch carries the annotation a sanctioned site needs: the
// argument that makes the concurrency unobservable.
func SanctionedLaunch(w *worker) {
	//oblivcheck:allow determinism: joined before return, so no schedule decision depends on OS interleaving
	go w.run()
	<-w.done
}

// UnsanctionedLaunch is the regression the rule exists for: engine code
// spawning a goroutine without an equivalence argument.
func UnsanctionedLaunch(w *worker) {
	go w.run() // want `go statement outside the sanctioned`
}
