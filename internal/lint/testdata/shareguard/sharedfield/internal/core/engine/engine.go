// Package engine is the sharedfield fixture: struct fields written from
// goroutine-spawned code through shared state with no synchronization.
package engine

import (
	"sync"
	"sync/atomic"
)

// hub's n is the positive case: the spawned worker writes it with no
// lock held anywhere, no atomic discipline and no annotation.
type hub struct {
	n    int
	done chan struct{}
}

func runHub() {
	h := &hub{done: make(chan struct{})}
	go h.work()
	<-h.done
}

func (h *hub) work() {
	h.n++ // want: sharedfield
	close(h.done)
}

// safeHub is a negative case: the same shape with the write under the
// mutex at every shared access site.
type safeHub struct {
	mu   sync.Mutex
	n    int
	done chan struct{}
}

func runSafeHub() {
	h := &safeHub{done: make(chan struct{})}
	go h.work()
	<-h.done
}

func (h *safeHub) work() {
	h.mu.Lock()
	h.n++
	h.mu.Unlock()
	close(h.done)
}

// opsHub is a negative case: the counter lives behind sync/atomic, which
// the atomicfuncs check owns.
type opsHub struct {
	ops  int64
	done chan struct{}
}

func runOpsHub() {
	h := &opsHub{done: make(chan struct{})}
	go h.work()
	<-h.done
}

func (h *opsHub) work() {
	atomic.AddInt64(&h.ops, 1)
	close(h.done)
}

// scratch is a negative case: the worker's accumulator is created inside
// the goroutine and never escapes it, so its field is worker-local no
// matter how hot the loop.
type scratch struct {
	sum int
}

type scanHub struct {
	done chan struct{}
}

func runScanHub() {
	h := &scanHub{done: make(chan struct{})}
	go h.work()
	<-h.done
}

func (h *scanHub) work() {
	var acc scratch
	for i := 0; i < 100; i++ {
		acc.sum += i
	}
	_ = acc.sum
	close(h.done)
}

// child is a negative case for constructor writes in goroutine-reachable
// code: the spawned worker builds a fresh child and fills it in before
// publishing it with the nested go statement.
type child struct {
	id   int
	done chan struct{}
}

type nestHub struct {
	done chan struct{}
}

func runNestHub() {
	h := &nestHub{done: make(chan struct{})}
	go h.work()
	<-h.done
}

func (h *nestHub) work() {
	c := &child{done: make(chan struct{})}
	c.id = 1 // pre-publication constructor write: not shared
	go c.loop()
	<-c.done
	close(h.done)
}

func (c *child) loop() {
	_ = c.id // read-only after publication: immutable-after-publish
	close(c.done)
}

// loud is the suppressed case: the same race as hub, acknowledged
// in-line.
type loud struct {
	n    int
	done chan struct{}
}

func runLoud() {
	l := &loud{done: make(chan struct{})}
	go l.work()
	<-l.done
}

func (l *loud) work() {
	//lint:ignore sharedfield fixture: unguarded write acknowledged
	l.n++
	close(l.done)
}
