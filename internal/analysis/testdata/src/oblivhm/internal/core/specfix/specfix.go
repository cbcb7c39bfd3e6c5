// Package specfix exercises the specsafe analyzer: scheduler-state reads
// reachable from speculative context must be dominated by c.serialize()
// (DESIGN.md §10).  The types mirror internal/core's shape; the package
// lives under the core path so the analyzer's scope predicate fires.
package specfix

type strand struct {
	spec bool
}

func (st *strand) charge(n int64)          { _ = n }
func (st *strand) park()                   {}
func (st *strand) deferFork(fn func(*Ctx)) { _ = fn }

type deque struct{ buf []int }

func (q *deque) empty() bool { return len(q.buf) == 0 }

type join struct {
	pending int
}

type engine struct {
	flat      bool // configuration, frozen at setup: safelisted
	steal     bool // configuration: safelisted
	clock     int64
	live      int
	runq      []deque
	freeJoins []*join
}

// Session owns the engine; its own fields are not scheduler state.
type Session struct {
	eng *engine
}

// Task mirrors the forked-task shape with a dynamic body.
type Task struct {
	Fn func(*Ctx)
}

// Ctx is the strand-side execution context.
type Ctx struct {
	s  *Session
	st *strand
}

// serialize stands in for the real speculation barrier; the analyzer
// special-cases it by name and receiver.
func (c *Ctx) serialize() {}
