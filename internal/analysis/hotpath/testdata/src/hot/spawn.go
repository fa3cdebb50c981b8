package hot

import "sync"

// worker mimics a shard whose hand-off closure was made at setup time,
// so starting it allocates nothing and trips no allocation rule.
type worker struct {
	work func()
	wg   sync.WaitGroup
}

// Dispatch is an annotated root that fans out per call.
//
//vpm:hotpath
func (w *worker) Dispatch() {
	w.wg.Add(1)
	go w.work() // want `go statement in a hot function`
	w.fanOut()
	w.wg.Wait()
}

// fanOut is hot by propagation from Dispatch.
func (w *worker) fanOut() {
	w.wg.Add(1)
	go w.work() // want `go statement in a hot function`
}

// start is never reached from an annotated root; spawning at setup
// time is fine.
func (w *worker) start() {
	go w.work()
}
