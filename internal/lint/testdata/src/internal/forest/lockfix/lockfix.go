// Package lockfix exercises lockcheck: guarded-by access discipline,
// //pqlint:locked entry assertions, the init-path exemption, and
// unlock-on-all-paths.
package lockfix

import (
	"errors"
	"sync"
)

var errEmpty = errors.New("empty")

type counterShard struct {
	mu   sync.RWMutex
	vals map[string]int // guarded by mu
}

type registry struct {
	mu     sync.RWMutex
	shards [4]counterShard
	epoch  int // guarded by mu
}

// table's rows are protected by its own mutex, or excluded wholesale by
// the registry write lock (the "registry write covers everything"
// pattern): a read-hold of registry.mu is NOT enough.
type table struct {
	mu   sync.Mutex
	rows map[string]int // guarded by mu or registry.mu:w
}

type broken struct {
	mu    sync.Mutex
	count int // guarded by lock — want "bad .guarded by. annotation on count"
}

func newShard() *counterShard {
	s := &counterShard{}
	s.vals = make(map[string]int) // fresh local: init path, no lock needed
	return s
}

func (s *counterShard) get(k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.vals[k]
}

func (s *counterShard) badGet(k string) int {
	return s.vals[k] // want `read of s\.vals without holding its guard \(mu\)`
}

func (s *counterShard) badWriteUnderRead(k string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.vals[k]++ // want `write of s\.vals while holding its guard \(mu\) read-only`
}

func (s *counterShard) put(k string, v int) {
	s.mu.Lock()
	s.vals[k] = v
	s.mu.Unlock()
}

// leakOnError forgets the unlock on its error path.
func (s *counterShard) leakOnError(k string) error {
	s.mu.Lock()
	if len(s.vals) == 0 {
		return errEmpty // want `counterShard\.mu acquired at line \d+ is still held when the function returns here`
	}
	s.vals[k]++
	s.mu.Unlock()
	return nil
}

// multiReturn releases on every path, manually.
func (s *counterShard) multiReturn(k string) (int, error) {
	s.mu.RLock()
	if s.vals == nil {
		s.mu.RUnlock()
		return 0, errEmpty
	}
	v, ok := s.vals[k]
	s.mu.RUnlock()
	if !ok {
		return 0, errEmpty
	}
	return v, nil
}

// addLocked is a *Locked helper: the caller holds s.mu for writing.
//
//pqlint:locked s.mu
func (s *counterShard) addLocked(k string) { s.vals[k]++ }

// sizeLocked only needs a read-hold.
//
//pqlint:locked s.mu:r
func (s *counterShard) sizeLocked() int { return len(s.vals) }

// badAssertion names a variable that is not a receiver or parameter;
// the guarded access below stays unchecked because nothing resolved.
//
/*pqlint:locked q.mu*/ // want `bad //pqlint:locked assertion "q\.mu"`
func (s *counterShard) badAssertion(k string) int {
	return s.vals[k] // want `read of s\.vals without holding its guard \(mu\)`
}

// nestedPath locks through a multi-step selector path; accesses through
// the same spelling match the held key.
func (r *registry) nestedPath(i int, k string) int {
	r.shards[i].mu.RLock()
	v := r.shards[i].vals[k]
	r.shards[i].mu.RUnlock()
	return v
}

// crossStructWrite rewrites a table under the registry write lock — the
// :w alternative sanctions it without taking t.mu.
//
//pqlint:locked r.mu
func (r *registry) crossStructWrite(t *table) {
	t.rows = make(map[string]int)
}

// crossStructReadHold holds the registry lock read-only, which the :w
// alternative does not accept (and t.mu is not held either).
//
//pqlint:locked r.mu:r
func (r *registry) crossStructReadHold(t *table) int {
	return len(t.rows) // want `read of t\.rows while holding its guard \(mu or registry\.mu:w\) read-only`
}

// branchesMerge: both branches acquire the lock, so the merged state
// still holds it (read-mode, the weaker of the two).
func (s *counterShard) branchesMerge(exclusive bool) int {
	if exclusive {
		s.mu.Lock()
	} else {
		s.mu.RLock()
	}
	n := len(s.vals)
	if exclusive {
		s.mu.Unlock()
	} else {
		s.mu.RUnlock()
	}
	return n
}

// oneBranchOnly: the lock is only held on one path, so the access after
// the merge is unguarded.
func (s *counterShard) oneBranchOnly(lock bool) int {
	if lock {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return len(s.vals) // want `read of s\.vals without holding its guard \(mu\)`
}

// closureUnderLock: an inline closure (sort-comparator shape) runs
// under the caller's lock and may touch guarded state.
func (s *counterShard) closureUnderLock(keys []string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	walk := func(k string) { total += s.vals[k] }
	for _, k := range keys {
		walk(k)
	}
	return total
}

// goroutineNoLock: a spawned goroutine does not inherit the lock
// discipline of its spawner; it acquires for itself.
func (s *counterShard) goroutineNoLock(done chan struct{}) {
	go func() {
		s.mu.Lock()
		s.vals["bg"]++
		s.mu.Unlock()
		<-done
	}()
}

// deferredClosureUnlock: the unlock lives inside a deferred closure.
func (s *counterShard) deferredClosureUnlock(k string) int {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	s.vals[k]++
	return s.vals[k]
}

func (b *broken) use() int {
	return b.count
}

// unlockOneBranch releases the lock on one branch only: the skipped
// path still owes the unlock, and owed releases merge by union.
func (s *counterShard) unlockOneBranch(k string, drop bool) int {
	s.mu.Lock()
	v := s.vals[k]
	if drop {
		s.mu.Unlock()
	}
	return v // want `counterShard\.mu acquired at line \d+ is still held when the function returns here`
}

// breakHoldsLock leaves the loop by a break with the lock held: the
// break carries the owed unlock to the loop's exit.
func (s *counterShard) breakHoldsLock(n int) int {
	for i := 0; ; i++ {
		s.mu.Lock()
		if i == n {
			break
		}
		s.mu.Unlock()
	}
	return n // want `counterShard\.mu acquired at line \d+ is still held when the function returns here`
}

// continueHoldsLock skips the unlock on a continue: the next iteration,
// which locks again, and so the loop's exit, still owe it.
func (s *counterShard) continueHoldsLock(keys []string) int {
	n := 0
	for _, k := range keys {
		s.mu.Lock()
		if k == "" {
			continue
		}
		n += s.vals[k]
		s.mu.Unlock()
	} // want `counterShard\.mu acquired at line \d+ is still held when the function returns here`
	return n // want `counterShard\.mu acquired at line \d+ is still held when the function returns here`
}

// breakUnderLock: a loop without a condition is left only by its break,
// which holds the lock, so the read after the loop is guarded.
func (s *counterShard) breakUnderLock(k string) int {
	for {
		s.mu.Lock()
		if s.vals[k] > 0 {
			break
		}
		s.mu.Unlock()
	}
	defer s.mu.Unlock()
	return s.vals[k]
}

// selectBreak: a break in a select leaves the select, not the loop,
// which goes on to release the lock.
func (s *counterShard) selectBreak(ch chan int) {
	for i := 0; i < 3; i++ {
		s.mu.Lock()
		select {
		case <-ch:
			break
		default:
		}
		s.mu.Unlock()
	}
}

// labeledBreak: a labeled break leaves the outer loop, so the inner
// loop's exit still holds the lock for the read after it.
func (s *counterShard) labeledBreak(rows [][]string) int {
	n := 0
outer:
	for _, row := range rows {
		s.mu.Lock()
		for _, k := range row {
			if k == "" {
				s.mu.Unlock()
				break outer
			}
		}
		n += len(s.vals)
		s.mu.Unlock()
	}
	return n
}

// fallthroughHoldsLock locks in a clause that falls through: the next
// clause starts with the lock owed, and so does the switch's exit.
func (s *counterShard) fallthroughHoldsLock(k int) int {
	switch k {
	case 0:
		s.mu.Lock()
		fallthrough
	case 1:
		k++
	}
	return k // want `counterShard\.mu acquired at line \d+ is still held when the function returns here`
}

// gotoHoldsLock jumps past the unlock to a label that returns: that path
// still holds the lock where it returns.
func (s *counterShard) gotoHoldsLock(k int) int {
	s.mu.Lock()
	if k == 0 {
		goto out
	}
	s.mu.Unlock()
	return k
out:
	return k + 1 // want `counterShard\.mu acquired at line \d+ is still held when the function returns here`
}

// gotoReleases jumps forward to the unlock: every path releases.
func (s *counterShard) gotoReleases(k int) int {
	s.mu.Lock()
	if k == 0 {
		goto out
	}
	k += s.vals["k"]
out:
	s.mu.Unlock()
	return k
}

// gotoReadsUnlocked reaches its read only through a goto, which carries
// no lock there.
func (s *counterShard) gotoReadsUnlocked(k string) int {
	if k != "" {
		goto read
	}
	return 0
read:
	return s.vals[k] // want `read of s\.vals without holding its guard \(mu\)`
}

// gotoRetryHoldsLock loops back through a goto with the lock taken after
// the label still held.
func (s *counterShard) gotoRetryHoldsLock(k int) int {
again:
	s.mu.Lock()
	if k > 0 {
		k--
		goto again // want `counterShard\.mu acquired at line \d+ is still held when the function returns here`
	}
	s.mu.Unlock()
	return k
}

// gotoRetryReadsUnlocked jumps back to a read that was checked with the
// lock held, after releasing it: the second pass reads unlocked.
func (s *counterShard) gotoRetryReadsUnlocked(k string) int {
	s.mu.Lock()
again:
	x := s.vals[k]
	s.mu.Unlock()
	if x == 0 {
		goto again // want `counterShard\.mu is held at label again but not here`
	}
	return x
}

// loopReadsUnlocked releases inside an endless loop the lock it took
// before it: the next iteration reads unlocked.
func (s *counterShard) loopReadsUnlocked(k string) int {
	s.mu.Lock()
	for {
		x := s.vals[k]
		s.mu.Unlock()
		if x != 0 {
			return x
		}
	} // want `counterShard\.mu is held entering the loop but not at the end of an iteration`
}

// rangeContinueUnlocked releases on a continue only: that path enters
// the next iteration without the lock.
func (s *counterShard) rangeContinueUnlocked(keys []string) int {
	n := 0
	s.mu.Lock()
	for _, k := range keys {
		if k == "" {
			s.mu.Unlock()
			continue
		}
		n += s.vals[k]
	} // want `counterShard\.mu is held entering the loop but not at the end of an iteration`
	s.mu.Unlock()
	return n
}

// loopRelocks releases for slow work and takes the lock again before the
// iteration ends: every iteration starts with it held.
func (s *counterShard) loopRelocks(keys []string) int {
	n := 0
	s.mu.Lock()
	for _, k := range keys {
		n += s.vals[k]
		s.mu.Unlock()
		n++
		s.mu.Lock()
	}
	s.mu.Unlock()
	return n
}

// gotoRetryRelocks takes the lock again before jumping back to the read.
func (s *counterShard) gotoRetryRelocks(k string) int {
	s.mu.Lock()
again:
	x := s.vals[k]
	s.mu.Unlock()
	if x == 0 {
		s.mu.Lock()
		goto again
	}
	return x
}
