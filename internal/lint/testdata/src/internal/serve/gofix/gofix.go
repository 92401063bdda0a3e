// Package gofix exercises goroutinecheck: WaitGroup join discipline,
// stop-channel shutdown paths, and the unresolvable-target case.
package gofix

import "sync"

func fanOut(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

func leak() {
	go func() { // want `goroutine has no provable join or shutdown path`
		for i := 0; ; i++ {
			_ = i
		}
	}()
}

func missingAdd() {
	var wg sync.WaitGroup
	go func() { // want `goroutine calls Done on a WaitGroup but no matching Add appears before the go statement`
		defer wg.Done()
	}()
	wg.Wait()
}

func addAfterGo() {
	var wg sync.WaitGroup
	go func() { // want `goroutine calls Done on a WaitGroup but no matching Add appears before the go statement`
		defer wg.Done()
	}()
	wg.Add(1)
	wg.Wait()
}

func stopChannel(stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
}

type server struct {
	wg   sync.WaitGroup
	quit chan struct{}
}

// fieldWaitGroup: the spawner Adds on s.wg and the worker method Dones
// on its own receiver's wg — matched by field-path tail.
func (s *server) start() {
	s.wg.Add(1)
	go s.loop()
}

func (s *server) loop() {
	defer s.wg.Done()
	<-s.quit
}

// namedWorker joins through a WaitGroup passed as a parameter.
func spawnNamed(jobs chan int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go worker(jobs, &wg)
	close(jobs)
	wg.Wait()
}

func worker(jobs chan int, wg *sync.WaitGroup) {
	defer wg.Done()
	for range jobs {
	}
}

// rangeDrain: ranging over a channel is a shutdown path — the producer
// closing the channel joins the consumer.
func rangeDrain(jobs chan int) {
	go func() {
		for range jobs {
		}
	}()
	close(jobs)
}

// doneOnAllPaths: non-deferred Done, covering every return lexically.
func doneOnAllPaths(wg *sync.WaitGroup, cond bool) {
	wg.Add(1)
	go func() {
		if cond {
			wg.Done()
			return
		}
		wg.Done()
	}()
}

func unresolvable() {
	go println("x") // want `goroutine has no provable join or shutdown path \(target is not declared in this package\)`
}

// doneOneBranch: the Done runs on one branch only, so the goroutine
// can return without it.
func doneOneBranch(wg *sync.WaitGroup, cond bool) {
	wg.Add(1)
	go func() { // want `goroutine has no provable join or shutdown path`
		if cond {
			wg.Done()
		}
	}()
}
