// Fixture for spancheck: every call that produces a *obs.Span must bind
// the result, and the span must be finished on every return path —
// either by a defer right after the start or by an explicit
// Finish/FinishWithDuration before each return.
package spanfix

import (
	"time"

	"pqgram/internal/obs"
)

// The canonical pattern: defer covers every path, including panics.
func goodDefer(work func() error) error {
	sp := obs.StartSpan("good.defer")
	defer sp.Finish()
	return work()
}

// Per-branch finishes are fine when every return is preceded by one.
func goodPerBranch(cond bool) int {
	sp := obs.StartSpan("good.branch")
	if cond {
		sp.SetAttr("taken", 1)
		sp.Finish()
		return 1
	}
	sp.Finish()
	return 0
}

// A finish inside a deferred function literal also covers every path.
func goodDeferredClosure(col *obs.Collector) {
	sp := col.StartTrace("good.closure")
	defer func() {
		sp.SetAttr("done", 1)
		sp.Finish()
	}()
	sp.AddAttr("work", 1)
}

// FinishWithDuration counts as finishing.
func goodSynthesized(t0 time.Time) {
	sp := obs.StartSpan("good.synthesized")
	sp.FinishWithDuration(time.Since(t0))
}

// Returning the span transfers ownership to the caller.
func goodHandoff() *obs.Span {
	sp := obs.StartSpan("good.handoff")
	return sp
}

// Passing a span down as an argument is fine: the starter still owns the
// Finish, and here it happens on the only path out.
func goodChildThreaded(sp *obs.Span) {
	child := sp.Child("good.child")
	child.SetAttr("n", 1)
	child.Finish()
}

// A span whose result is thrown away can never be finished.
func badDiscarded() {
	obs.StartSpan("bad.discarded") // want `result of StartSpan\(\) is discarded`
}

// Blank assignment is the same bug with extra steps.
func badBlank() {
	_ = obs.StartSpan("bad.blank") // want `span from StartSpan\(\) is not bound to a single variable`
}

// The error path leaks the span: only the success return finishes it.
func badEarlyReturn(work func() error) error {
	sp := obs.StartSpan("bad.early")
	if err := work(); err != nil {
		return err // want `span "sp" started from StartSpan\(\) is not finished on this return path`
	}
	sp.Finish()
	return nil
}

// No finish anywhere: the function falls off the end with the span open.
func badFallsOffEnd(tr *obs.Tracer) {
	sp := tr.Start("bad.fallthrough") // want `span "sp" started from Start\(\) is never finished before the function falls off the end`
	sp.SetAttr("n", 1)
}

// Child spans are held to the same contract as roots.
func badChildLeak(parent *obs.Span, cond bool) int {
	child := parent.Child("bad.child")
	if cond {
		return 1 // want `span "child" started from Child\(\) is not finished on this return path`
	}
	child.Finish()
	return 0
}

// The escape hatch names the analyzer and documents why.
func allowedLeak() {
	sp := obs.StartSpan("allowed") //pqlint:allow spancheck — intentionally unfinished in this fixture
	sp.SetAttr("n", 1)
}

// Finishing on one branch only leaves the other path's span open.
func badFinishOneBranch(cond bool) int {
	sp := obs.StartSpan("bad.onebranch")
	if cond {
		sp.Finish()
	}
	return 0 // want `span "sp" started from StartSpan\(\) is not finished on this return path`
}

// A nil check that proves no span was started covers the skipped path.
func goodNilChecked(col *obs.Collector) {
	if sp := col.StartTrace("good.nilchecked"); sp != nil {
		sp.Finish()
	}
}

// A span started only when tracing is on, finished under the same nil
// check: the skipped path never held a span.
func goodConditionalStart(col *obs.Collector, on bool) int {
	var sp *obs.Span
	if on {
		sp = col.StartTrace("good.conditional")
	}
	n := 1
	if sp != nil {
		sp.SetAttr("n", int64(n))
		sp.Finish()
	}
	return n
}

// A package-level function literal is held to the same contract.
var badPackageLevel = func(cond bool) {
	sp := obs.StartSpan("bad.pkglevel")
	if cond {
		return // want `span "sp" started from StartSpan\(\) is not finished on this return path`
	}
	sp.Finish()
}
