package vtime

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// refSim is the channel-handoff kernel that direct handoff replaced,
// kept verbatim in behaviour (virtual mode only, types renamed) as the
// reference implementation for TestDifferentialKernel. A scheduler
// goroutine (RunE's) pops every event; each proc switch is two channel
// transfers, proc → scheduler on yield and scheduler → proc on resume;
// every event is a fresh allocation carrying a closure.
type refSim struct {
	now      Time
	seq      uint64
	events   refEventHeap
	procs    []*refProc
	live     int
	deadline Time
	obs      refObserver

	yield   chan struct{}
	current *refProc

	panicked any
	running  bool
}

// refObserver is Observer plus EdgeObserver over reference procs.
type refObserver interface {
	ProcBlocked(p *refProc, state, where string)
	ProcResumed(p *refProc)
	ProcDone(p *refProc)
	Deadlock(e *DeadlockError)
	ProcUnparked(p *refProc, by *refProc)
}

type refEvent struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
}

type refEventHeap []*refEvent

func (h refEventHeap) Len() int { return len(h) }
func (h refEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refEventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type refProc struct {
	sim    *refSim
	id     int
	name   string
	resume chan struct{}
	state  procState
	permit bool

	blockedSince Time
	blockedAt    string

	killed   error
	resumeEv *refEvent
}

func (p *refProc) Name() string { return p.name }

func newRefSim() *refSim { return &refSim{yield: make(chan struct{})} }

func (s *refSim) Spawn(name string, fn func(p *refProc)) *refProc {
	p := &refProc{
		sim:    s,
		id:     len(s.procs),
		name:   name,
		resume: make(chan struct{}),
		state:  stateNew,
	}
	s.procs = append(s.procs, p)
	s.live++
	s.schedule(s.now, func() { s.startProc(p, fn) })
	return p
}

func (s *refSim) startProc(p *refProc, fn func(p *refProc)) {
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				if err, ok := r.(error); ok {
					s.panicked = fmt.Errorf("proc %q panicked: %w", p.name, err)
				} else {
					s.panicked = fmt.Errorf("proc %q panicked: %v", p.name, r)
				}
			}
			p.state = stateDone
			s.live--
			if s.obs != nil {
				s.obs.ProcDone(p)
			}
			s.yield <- struct{}{}
		}()
		if s.obs != nil {
			s.obs.ProcResumed(p)
		}
		if p.killed != nil {
			err := p.killed
			p.killed = nil
			panic(err)
		}
		fn(p)
	}()
	s.dispatch(p)
}

func (s *refSim) dispatch(p *refProc) {
	if p.state == stateDone {
		return
	}
	prev := s.current
	s.current = p
	p.state = stateRunning
	p.resume <- struct{}{}
	<-s.yield
	s.current = prev
	if pv := s.panicked; pv != nil {
		s.panicked = nil
		panic(pv)
	}
}

func (s *refSim) schedule(at Time, fn func()) *refEvent {
	if at < s.now {
		panic(fmt.Sprintf("vtime: scheduling event in the past: %v < %v", at, s.now))
	}
	s.seq++
	e := &refEvent{at: at, seq: s.seq, fn: fn}
	heap.Push(&s.events, e)
	return e
}

func (s *refSim) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("vtime: negative delay")
	}
	s.schedule(s.now.Add(d), fn)
}

func (s *refSim) AfterCancel(d time.Duration, fn func()) (cancel func()) {
	if d < 0 {
		panic("vtime: negative delay")
	}
	e := s.schedule(s.now.Add(d), fn)
	return func() { e.cancelled = true }
}

func (p *refProc) block(st procState, where string) {
	p.state = st
	p.blockedSince = p.sim.now
	p.blockedAt = where
	if p.sim.obs != nil {
		p.sim.obs.ProcBlocked(p, st.String(), where)
	}
	p.sim.yield <- struct{}{}
	<-p.resume
	p.state = stateRunning
	if p.sim.obs != nil {
		p.sim.obs.ProcResumed(p)
	}
	if p.killed != nil {
		err := p.killed
		p.killed = nil
		panic(err)
	}
}

func (p *refProc) Compute(d time.Duration) {
	if d < 0 {
		panic("vtime: negative compute duration")
	}
	s := p.sim
	var ev *refEvent
	ev = s.schedule(s.now.Add(d), func() {
		if p.resumeEv == ev {
			p.resumeEv = nil
		}
		s.dispatch(p)
	})
	p.resumeEv = ev
	p.block(stateComputing, "Compute")
}

func (p *refProc) Park(where string) {
	if p.permit {
		p.permit = false
		return
	}
	p.block(stateParked, where)
}

func (p *refProc) Unpark() {
	if p.state == stateParked && !p.permit {
		p.permit = true
		s := p.sim
		if s.obs != nil {
			s.obs.ProcUnparked(p, s.current)
		}
		s.schedule(s.now, func() {
			if p.state == stateParked && p.permit {
				p.permit = false
				s.dispatch(p)
			}
		})
		return
	}
	p.permit = true
}

func (p *refProc) Kill(err error) {
	if err == nil {
		panic("vtime: Kill with nil error")
	}
	if p.state == stateDone || p.killed != nil {
		return
	}
	p.killed = err
	s := p.sim
	switch p.state {
	case stateParked:
		p.permit = false
		s.schedule(s.now, func() {
			if p.state == stateParked {
				s.dispatch(p)
			}
		})
	case stateComputing:
		if p.resumeEv != nil {
			p.resumeEv.cancelled = true
			p.resumeEv = nil
		}
		s.schedule(s.now, func() {
			if p.state == stateComputing {
				s.dispatch(p)
			}
		})
	}
}

func (s *refSim) deadlockError(reason string) *DeadlockError {
	e := &DeadlockError{Now: s.now, Reason: reason}
	procs := append([]*refProc(nil), s.procs...)
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	for _, p := range procs {
		if p.state == stateDone {
			continue
		}
		e.Procs = append(e.Procs, ProcDump{
			ID:    p.id,
			Name:  p.name,
			State: p.state.String(),
			Where: p.blockedAt,
			Since: p.blockedSince,
		})
	}
	return e
}

func (s *refSim) RunE() (t Time, err error) {
	if s.running {
		panic("vtime: Run called reentrantly")
	}
	s.running = true
	defer func() {
		s.running = false
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
			} else {
				err = fmt.Errorf("vtime: %v", r)
			}
			t = s.now
		}
	}()
	for len(s.events) > 0 {
		e := heap.Pop(&s.events).(*refEvent)
		if e.cancelled {
			continue
		}
		if e.at < s.now {
			panic("vtime: time went backwards")
		}
		if s.deadline > 0 && e.at >= s.deadline && s.live > 0 {
			s.now = s.deadline
			de := s.deadlockError(fmt.Sprintf("deadline %v expired", s.deadline))
			if s.obs != nil {
				s.obs.Deadlock(de)
			}
			return s.now, de
		}
		s.now = e.at
		e.fn()
	}
	if s.live > 0 {
		de := s.deadlockError("no pending events")
		if s.obs != nil {
			s.obs.Deadlock(de)
		}
		return s.now, de
	}
	return s.now, nil
}
