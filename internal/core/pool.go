package core

import (
	"sync"
	"sync/atomic"
)

// evalPool is the bounded worker pool behind the optimizer's parallel
// candidate evaluation. Candidate generation feeds whole batches (all
// configurations for one node, or one pass's web-expansion set); workers
// pull candidates off a shared index and write evaluations back into
// the batch's result slice by position. The adopting loop then replays
// the results strictly in candidate order, so score ties break toward
// the lowest candidate index and the outcome is bit-identical to the
// sequential solver at any pool size.
type evalPool struct {
	workers int
	// own is the calling goroutine's arena: batches too small to split,
	// and every batch of a sequential pool, are evaluated on it.
	own     *arena
	arenas  []*arena // one per worker goroutine
	batches chan *evalBatch
	exited  sync.WaitGroup
}

type evalBatch struct {
	ctx   *evalContext
	cands [][]edit
	evs   []*Evaluation
	errs  []error
	next  atomic.Int64
	fail  atomic.Bool
	wg    sync.WaitGroup
}

// newEvalPool takes its arenas from the package pool and, for
// workers > 1, starts that many goroutines; close releases both. At
// workers == 1 evaluation happens on the calling goroutine and no
// goroutine is spawned at all.
func newEvalPool(workers int) *evalPool {
	p := &evalPool{workers: workers, own: arenas.Get().(*arena)}
	if workers > 1 {
		p.batches = make(chan *evalBatch)
		p.exited.Add(workers)
		for i := 0; i < workers; i++ {
			ar := arenas.Get().(*arena)
			p.arenas = append(p.arenas, ar)
			go p.run(ar)
		}
	}
	return p
}

func (p *evalPool) run(ar *arena) {
	defer p.exited.Done()
	for b := range p.batches {
		for !b.fail.Load() {
			i := int(b.next.Add(1)) - 1
			if i >= len(b.cands) {
				break
			}
			ev, err := b.ctx.evaluate(ar, b.cands[i])
			if err != nil {
				b.errs[i] = err
				b.fail.Store(true)
				break
			}
			b.evs[i] = ev
		}
		b.wg.Done()
	}
}

// close stops the workers, waits until the last one has returned, and
// hands every arena back, without its copy of the incumbent, from the
// calling goroutine — so when Optimize returns no goroutine of its is
// left running, and where the next cycle finds the arenas does not
// depend on how the workers happened to be scheduled.
func (p *evalPool) close() {
	if p.batches != nil {
		close(p.batches)
		p.exited.Wait()
	}
	for _, ar := range append(p.arenas, p.own) {
		ar.base, ar.work = nil, nil
		arenas.Put(ar)
	}
}

// evalAll evaluates every candidate (its edits to ctx's base) and
// returns the evaluations in candidate order. A sequential pool, or a
// batch too small to split, evaluates on the calling goroutine.
func (p *evalPool) evalAll(ctx *evalContext, cands [][]edit) ([]*Evaluation, error) {
	evs := make([]*Evaluation, len(cands))
	if p.workers <= 1 || len(cands) <= 1 {
		for i, cand := range cands {
			ev, err := ctx.evaluate(p.own, cand)
			if err != nil {
				return nil, err
			}
			evs[i] = ev
		}
		return evs, nil
	}
	// Wake only as many workers as there are candidates: small batches
	// (one node's configurations right after an adoption) shouldn't pay
	// a full pool's worth of synchronization.
	workers := p.workers
	if len(cands) < workers {
		workers = len(cands)
	}
	b := &evalBatch{ctx: ctx, cands: cands, evs: evs, errs: make([]error, len(cands))}
	b.wg.Add(workers)
	for i := 0; i < workers; i++ {
		p.batches <- b
	}
	b.wg.Wait()
	for _, err := range b.errs {
		if err != nil {
			return nil, err
		}
	}
	return evs, nil
}
