// Package vtime implements a deterministic discrete-event simulation
// kernel with virtual time.
//
// A Sim owns a virtual clock and an event heap. Work is performed by
// procs — goroutines that run in a strict coroutine discipline: at any
// instant exactly one goroutine (RunE's or a single proc's) is
// executing, so every run of a given program is bit-for-bit
// reproducible. Events that fire at the same virtual time execute in
// the order they were scheduled.
//
// There is no scheduler goroutine. Control is a baton passed from
// proc to proc: the proc that blocks runs the event loop itself until
// an event makes some proc runnable, then hands the baton straight to
// that proc with a single channel send — or simply keeps running when
// the runnable proc is itself. The baton returns to RunE only when the
// run is over (the heap empties, the deadline fires, or a proc or
// callback panics).
//
// Procs model computation by calling Compute, which advances the
// virtual clock without consuming real CPU time proportional to the
// modelled duration, and synchronize through Park/Unpark (a permit
// semaphore in the style of LockSupport) or through callbacks
// scheduled with After. The resume events of Compute and Unpark carry
// a kind and a proc rather than a closure, and every fired or
// cancelled event is recycled through a free list, so blocking
// allocates nothing. A recycled event gets a fresh sequence number;
// holders of an old reference (an AfterCancel cancel func, a proc's
// pending Compute timer) compare it before touching the event.
//
// The kernel is the substrate for the fabric, mpi and armci packages:
// NIC DMA engines are event chains, ranks are procs, and the overlap
// instrumentation reads its time-stamps from the virtual clock.
package vtime

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Time is an instant in virtual time, in nanoseconds since the start
// of the simulation.
type Time int64

// Duration converts a virtual-time span to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// evKind selects what firing an event does.
type evKind uint8

const (
	evFunc    evKind = iota // run fn
	evCompute               // end p's Compute
	evUnpark                // resume parked p if its permit still stands
)

// event is a scheduled kernel action. Events are ordered by (at, seq)
// so that simultaneous events run in scheduling order. A cancelled
// event is skipped without advancing the clock, so stale timers (e.g.
// a retransmission timeout whose acknowledgment arrived) never stretch
// the simulated duration. Fired and skipped events are zeroed and
// reused, so seq also identifies one use of an event.
type event struct {
	at        Time
	seq       uint64
	kind      evKind
	p         *Proc  // evCompute, evUnpark
	fn        func() // evFunc
	cancelled bool
}

// eventHeap is a binary min-heap of events in (at, seq) order. Keys
// are unique, so the pop order does not depend on the heap's layout.
type eventHeap []*event

func (e *event) before(f *event) bool {
	return e.at < f.at || (e.at == f.at && e.seq < f.seq)
}

func (h *eventHeap) push(e *event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !e.before(q[up]) {
			break
		}
		q[i] = q[up]
		i = up
	}
	q[i] = e
	*h = q
}

func (h *eventHeap) pop() *event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// procState describes what a proc is currently doing; it is reported
// in deadlock dumps.
type procState int

const (
	stateNew procState = iota
	stateRunning
	stateComputing // blocked in Compute until a timer fires
	stateParked    // blocked in Park until Unpark
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateRunning:
		return "running"
	case stateComputing:
		return "computing"
	case stateParked:
		return "parked"
	case stateDone:
		return "done"
	}
	return "invalid"
}

// Observer receives kernel scheduling callbacks: every proc
// block/resume transition, proc completion, and deadlock diagnoses.
// All callbacks run in simulation context under the coroutine
// discipline (exactly one goroutine executing), so an observer needs
// no locking; it must not call back into the kernel (no Compute, Park
// or scheduling) — observation is free in virtual time.
type Observer interface {
	// ProcBlocked fires when p gives up control: state is the
	// blocked state ("computing", "parked"), where the blocking call
	// site label.
	ProcBlocked(p *Proc, state, where string)
	// ProcResumed fires when p regains control, including its first
	// dispatch after Spawn.
	ProcResumed(p *Proc)
	// ProcDone fires when p's function returns (or panics).
	ProcDone(p *Proc)
	// Deadlock fires when RunE diagnoses a wedged simulation, with the
	// same error it is about to return.
	Deadlock(e *DeadlockError)
}

// EdgeObserver is an optional extension of Observer exposing the
// event-graph edges of the schedule: which context released each
// parked proc. Observers that also implement it (checked by type
// assertion, so plain Observers keep working) receive one callback per
// effective wake-up — the parked→runnable transitions that offline
// analysis (critical-path extraction) needs to hop between timelines.
type EdgeObserver interface {
	Observer
	// ProcUnparked fires when a parked p is granted the wake-up that
	// will dispatch it, before the dispatch runs. by is the proc whose
	// execution called Unpark, or nil when the wake came from event
	// context (a timer, a fabric delivery). Redundant Unparks — the
	// proc not parked, or a permit already pending — do not fire.
	ProcUnparked(p *Proc, by *Proc)
}

// Sim is a deterministic virtual-time simulator. The zero value is not
// usable; create one with NewSim.
type Sim struct {
	now      Time
	seq      uint64
	events   eventHeap
	procs    []*Proc
	live     int  // procs not yet done
	deadline Time // 0 = no watchdog
	obs      Observer

	free []*event // recycled events
	next *Proc    // proc made runnable by the event being fired

	yield   chan struct{} // proc -> RunE: the run is over
	current *Proc         // proc currently executing, nil in event context

	panicked any   // panic value captured from a proc or callback
	err      error // *DeadlockError when the run wedged
	running  bool

	// rt is non-nil for real-clock sims (see real.go): procs run as
	// concurrent goroutines under a kernel lock and time comes from a
	// clock.Clock instead of the event heap.
	rt *realState
}

// SetObserver installs the kernel observer (nil to remove). It must be
// called before Run; observing a simulation mid-flight would see spans
// with no start.
func (s *Sim) SetObserver(o Observer) { s.obs = o }

// NewSim returns an empty simulator at virtual time zero.
func NewSim() *Sim {
	return &Sim{yield: make(chan struct{})}
}

// Now returns the current virtual time: the event clock on a virtual
// sim, nanoseconds of real clock time since construction on a real
// one.
func (s *Sim) Now() Time {
	if s.rt != nil {
		return s.realNow()
	}
	return s.now
}

// Proc is a simulated thread of control. Procs are created with
// Sim.Spawn and run under the kernel's coroutine discipline: all Proc
// methods must be called from the proc's own goroutine, except Unpark,
// which may be called from any simulation context (another proc or an
// After callback).
type Proc struct {
	sim    *Sim
	id     int
	name   string
	resume chan struct{}
	state  procState
	permit bool // pending Unpark while not parked

	blockedSince Time   // for deadlock dumps
	blockedAt    string // label of the blocking call site

	killed    error  // pending Kill, delivered as a panic at the next resume
	resumeEv  *event // pending Compute timer, cancelled by Kill
	resumeSeq uint64 // resumeEv's seq, guarding against a recycled event

	cond *sync.Cond // real mode: wakes the proc's Park; waits on rt.mu
}

// ID returns the proc's index in spawn order, starting at zero.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulator the proc belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.Now() }

// Spawn registers a new proc that will execute fn when Run is called.
// Spawning after Run has started is allowed only from within the
// simulation (a proc or callback); the new proc starts at the current
// virtual time.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	if s.rt != nil {
		return s.spawnReal(name, fn)
	}
	p := &Proc{
		sim:    s,
		id:     len(s.procs),
		name:   name,
		resume: make(chan struct{}),
		state:  stateNew,
	}
	s.procs = append(s.procs, p)
	s.live++
	s.schedule(s.now, evFunc, nil, func() { s.startProc(p, fn) })
	return p
}

// startProc launches the proc goroutine and makes it runnable. Runs
// in event context.
func (s *Sim) startProc(p *Proc, fn func(p *Proc)) {
	go func() {
		<-p.resume // wait for first dispatch
		defer func() {
			if r := recover(); r != nil {
				// Preserve typed panic values (library CommErrors and
				// friends) so errors.Is/As work on what Run surfaces.
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
			s.current = nil
			var next *Proc
			if s.panicked == nil {
				next = s.procLoop()
			}
			s.pass(next)
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

// dispatch makes p the proc the event loop hands control to once the
// current event returns. Must run in event context.
func (s *Sim) dispatch(p *Proc) {
	if p.state == stateDone {
		return // proc was killed while a stale resume event was in flight
	}
	s.next = p
}

// schedule enqueues an event at time at, reusing a recycled one when
// the free list has any.
func (s *Sim) schedule(at Time, kind evKind, p *Proc, fn func()) *event {
	if at < s.now {
		panic(fmt.Sprintf("vtime: scheduling event in the past: %v < %v", at, s.now))
	}
	s.seq++
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = new(event)
	}
	*e = event{at: at, seq: s.seq, kind: kind, p: p, fn: fn}
	s.events.push(e)
	return e
}

// release zeroes a fired or skipped event and returns it to the free
// list. Zeroing seq makes every outstanding reference to it stale.
func (s *Sim) release(e *event) {
	*e = event{}
	s.free = append(s.free, e)
}

// fire releases the popped event e and performs its action.
func (s *Sim) fire(e *event) {
	kind, p, fn := e.kind, e.p, e.fn
	if kind == evCompute && p.resumeEv == e {
		p.resumeEv = nil
	}
	s.release(e)
	switch kind {
	case evFunc:
		fn()
	case evCompute:
		s.dispatch(p)
	case evUnpark:
		if p.state == stateParked && p.permit {
			p.permit = false
			s.dispatch(p)
		}
	}
}

// loop fires events until one makes a proc runnable and returns that
// proc. It returns nil when the run is over: the heap is exhausted or
// the deadline expired, and s.err says whether procs were left
// blocked. It runs on whichever goroutine holds control: RunE's before
// the first handoff, afterwards the goroutine of the proc that just
// blocked or finished.
func (s *Sim) loop() *Proc {
	for len(s.events) > 0 {
		e := s.events.pop()
		if e.cancelled {
			s.release(e) // skipped without advancing the clock
			continue
		}
		if e.at < s.now {
			panic("vtime: time went backwards")
		}
		if s.deadline > 0 && e.at >= s.deadline && s.live > 0 {
			s.now = s.deadline
			s.deadlock(fmt.Sprintf("deadline %v expired", s.deadline))
			return nil
		}
		s.now = e.at
		s.fire(e)
		if p := s.next; p != nil {
			s.next = nil
			return p
		}
	}
	if s.live > 0 {
		s.deadlock("no pending events")
	}
	return nil
}

// procLoop is loop on a proc's goroutine. A panic from an event
// callback ends the run rather than unwinding the proc's stack, where
// a recovering defer in the proc body would swallow it.
func (s *Sim) procLoop() (next *Proc) {
	defer func() {
		if r := recover(); r != nil {
			s.panicked = r
			next = nil
		}
	}()
	return s.loop()
}

// pass hands control from the calling proc's goroutine to next, or
// back to RunE when next is nil because the run is over.
func (s *Sim) pass(next *Proc) {
	if next == nil {
		s.yield <- struct{}{}
		return
	}
	s.current = next
	next.state = stateRunning
	next.resume <- struct{}{}
}

// After schedules fn to run in event context d from now. It may be
// called from any simulation context. fn must not block; to perform
// blocking work, have fn Unpark a proc or Spawn one.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("vtime: negative delay")
	}
	if s.rt != nil {
		s.afterReal(d, fn)
		return
	}
	s.schedule(s.now.Add(d), evFunc, nil, fn)
}

// AfterCancel is After returning a cancel function. A cancelled event
// is discarded without running and — unlike an event that fires as a
// no-op — without advancing the virtual clock, so speculative timers
// (retransmission timeouts, watchdogs) do not distort the measured run
// duration. Cancelling twice, or after the event fired, is a no-op:
// the seq check keeps a late cancel off the recycled event.
func (s *Sim) AfterCancel(d time.Duration, fn func()) (cancel func()) {
	if d < 0 {
		panic("vtime: negative delay")
	}
	if s.rt != nil {
		return s.afterReal(d, fn)
	}
	e := s.schedule(s.now.Add(d), evFunc, nil, fn)
	seq := e.seq
	return func() {
		if e.seq == seq {
			e.cancelled = true
		}
	}
}

// block gives up control until the proc is dispatched again. Its
// goroutine runs the event loop itself; if the loop makes another proc
// runnable, control passes straight to it. Must be called from the
// proc's goroutine.
func (p *Proc) block(st procState, where string) {
	s := p.sim
	p.state = st
	p.blockedSince = s.now
	p.blockedAt = where
	if s.obs != nil {
		s.obs.ProcBlocked(p, st.String(), where)
	}
	s.current = nil
	if next := s.procLoop(); next == p {
		s.current = p
	} else {
		s.pass(next)
		<-p.resume
	}
	p.state = stateRunning
	if s.obs != nil {
		s.obs.ProcResumed(p)
	}
	if p.killed != nil {
		// Deliver a pending Kill exactly once: the panic unwinds the
		// proc's stack; cleanup code that recovers it may block again
		// without re-triggering.
		err := p.killed
		p.killed = nil
		panic(err)
	}
}

// Compute advances the proc's view of time by d, modelling a stretch
// of user computation (or any busy period). Other events continue to
// fire during the interval. Compute(0) yields to already-scheduled
// events at the current instant and then continues.
func (p *Proc) Compute(d time.Duration) {
	if d < 0 {
		panic("vtime: negative compute duration")
	}
	s := p.sim
	if s.rt != nil {
		p.computeReal(d)
		return
	}
	p.resumeEv = s.schedule(s.now.Add(d), evCompute, p, nil)
	p.resumeSeq = p.resumeEv.seq
	p.block(stateComputing, "Compute")
}

// Sleep is an alias for Compute, for callers modelling idle waiting
// rather than computation.
func (p *Proc) Sleep(d time.Duration) { p.Compute(d) }

// Yield reschedules the proc at the current virtual time behind any
// events already queued for this instant.
func (p *Proc) Yield() { p.Compute(0) }

// Park blocks the proc until another simulation context calls Unpark.
// If a permit is pending (Unpark happened since the last Park), Park
// consumes it and returns immediately. The where label is reported in
// deadlock dumps.
func (p *Proc) Park(where string) {
	if p.sim.rt != nil {
		p.parkReal(where)
		return
	}
	if p.permit {
		p.permit = false
		return
	}
	p.block(stateParked, where)
}

// Unpark makes a permit available to p: if p is parked it resumes at
// the current virtual time; otherwise its next Park returns
// immediately. Calling Unpark repeatedly before the proc parks is
// idempotent. Unpark must be called from simulation context (a proc or
// an After callback), never from outside Run.
func (p *Proc) Unpark() {
	if p.sim.rt != nil {
		p.unparkReal()
		return
	}
	if p.state == stateParked && !p.permit {
		p.permit = true
		s := p.sim
		if eo, ok := s.obs.(EdgeObserver); ok {
			eo.ProcUnparked(p, s.current)
		}
		s.schedule(s.now, evUnpark, p, nil)
		return
	}
	p.permit = true
}

// Kill schedules err to be delivered to p as a panic, modelling the
// abrupt death of the simulated thread (a crashed node). If p is
// blocked (parked or computing) it is resumed immediately at the
// current virtual time and the panic unwinds from the blocking call;
// if it is running or not yet started, the panic is delivered at its
// next blocking call (or before its body runs, for a new proc). The
// panic value is exactly err, so a deferred recover in the proc's
// stack (e.g. a rank's abort handler) can identify the crash, record
// it, and let the rest of the simulation continue. Killing a finished
// proc, or one with a kill already pending, is a no-op. Kill must be
// called from simulation context, like Unpark.
func (p *Proc) Kill(err error) {
	if err == nil {
		panic("vtime: Kill with nil error")
	}
	if p.sim.rt != nil {
		p.killReal(err)
		return
	}
	if p.state == stateDone || p.killed != nil {
		return
	}
	p.killed = err
	s := p.sim
	switch p.state {
	case stateParked:
		// Clear any pending permit so a stale Unpark event (which
		// re-checks state and permit) cannot double-dispatch.
		p.permit = false
		s.schedule(s.now, evFunc, nil, func() {
			if p.state == stateParked {
				s.dispatch(p)
			}
		})
	case stateComputing:
		// Cancel the Compute timer so it cannot resume the proc a
		// second time (or resume a later, unrelated Compute early).
		if ev := p.resumeEv; ev != nil && ev.seq == p.resumeSeq {
			ev.cancelled = true
		}
		p.resumeEv = nil
		s.schedule(s.now, evFunc, nil, func() {
			if p.state == stateComputing {
				s.dispatch(p)
			}
		})
	}
	// stateNew and stateRunning: the pending kill is delivered by the
	// killed check at the proc's next resume or before its body runs.
}

// SetDeadline arms a watchdog: if the simulation reaches virtual time d
// with procs still live, RunE stops and returns a *DeadlockError whose
// Reason says the deadline expired. A zero deadline disables the
// watchdog. The watchdog catches livelock (e.g. a retransmission loop
// that schedules events forever without making progress), which the
// event-exhaustion check alone cannot detect.
func (s *Sim) SetDeadline(d Time) { s.deadline = d }

// ProcDump is the state of one unfinished proc at the moment a
// deadlock was diagnosed.
type ProcDump struct {
	ID    int
	Name  string
	State string // "parked", "computing", "new", "running"
	Where string // label of the blocking call site
	Since Time   // virtual time the proc blocked
}

// DeadlockError reports that the simulation could not run to
// completion: events were exhausted (or the deadline expired) while
// procs were still blocked. Procs lists every unfinished proc in spawn
// order with what it was waiting on.
type DeadlockError struct {
	Now    Time
	Reason string
	Procs  []ProcDump
}

func (e *DeadlockError) Error() string {
	s := fmt.Sprintf("vtime: deadlock: %s: %d proc(s) blocked at t=%v",
		e.Reason, len(e.Procs), e.Now)
	for _, p := range e.Procs {
		s += fmt.Sprintf("\n  proc %d %q: %s in %s since t=%v",
			p.ID, p.Name, p.State, p.Where, p.Since)
	}
	return s
}

// deadlockError builds the structured dump of every non-finished proc.
func (s *Sim) deadlockError(reason string) *DeadlockError {
	e := &DeadlockError{Now: s.now, Reason: reason}
	procs := append([]*Proc(nil), s.procs...)
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

// RunE executes the simulation until no events remain and returns the
// final virtual time. If events are exhausted (or the deadline set with
// SetDeadline expires) while procs are still blocked, it returns a
// *DeadlockError describing every stuck proc. A panic from a proc is
// recovered and returned as an error, wrapped so errors.Is/As see the
// original value when it was itself an error.
func (s *Sim) RunE() (t Time, err error) {
	if s.rt != nil {
		return s.runRealE()
	}
	if s.running {
		panic("vtime: Run called reentrantly")
	}
	s.running = true
	s.err = nil
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
	if next := s.loop(); next != nil {
		s.pass(next)
		<-s.yield
	}
	if r := s.panicked; r != nil {
		s.panicked = nil
		panic(r)
	}
	return s.now, s.err
}

// deadlock ends the run with a *DeadlockError for reason.
func (s *Sim) deadlock(reason string) {
	de := s.deadlockError(reason)
	if s.obs != nil {
		s.obs.Deadlock(de)
	}
	s.err = de
}

// Run is RunE for callers that treat failure as fatal: it panics with
// the error (a *DeadlockError when the simulation wedged, or the
// proc's wrapped panic value) instead of returning it.
func (s *Sim) Run() Time {
	t, err := s.RunE()
	if err != nil {
		panic(err)
	}
	return t
}
