package core

import "context"

// cancelStride is how many traversal steps pass between two looks at the
// context. It must be a power of two: the gate tests a mask, which costs
// one increment and one branch per step — cheap enough that the hot loops
// (heap pops, recursive expansions, best-first dequeues) stay within noise
// of a context-free traversal (the "ctxflow" benchmark experiment gates
// this at <= 1%). 1024 steps bound the cancellation latency to a few
// node reads' worth of work, far below human-visible deadlines.
const cancelStride = 1024

// cancelGate is a stride-gated context poll shared by the sequential
// traversal drivers. Each driver owns one gate (the zero value is ready to
// use) and calls poll once per loop step; only every cancelStride-th call
// actually touches the context. The cpqlint cancelpoll check summarizes
// poll as a cancellation point, so a loop that calls it is proven
// interruptible.
type cancelGate struct {
	steps uint32
}

// poll counts one traversal step and, every cancelStride steps, reports
// the context's error so the enclosing loop can unwind. The off-stride
// path returns before reading the context at all.
func (g *cancelGate) poll(ctx context.Context) error {
	g.steps++
	if g.steps&(cancelStride-1) != 0 {
		return nil
	}
	return ctx.Err()
}
