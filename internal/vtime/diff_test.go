package vtime

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// The differential test runs seeded random programs on the kernel and
// on refSim, the channel-handoff kernel it replaced, and requires both
// to produce the same observer callback sequence (each stamped with
// the virtual time), the same final time and the same error text.

// dkProc and dkSim are the kernel API a program drives, implemented
// by both kernels through the adapters below.
type dkProc interface {
	Compute(d time.Duration)
	Park(where string)
	Unpark()
	Kill(err error)
	Name() string
}

type dkSim interface {
	spawn(name string, fn func(dkProc)) dkProc
	after(d time.Duration, fn func())
	afterCancel(d time.Duration, fn func()) func()
	setDeadline(d Time)
	run() (Time, error)
}

// diffLog records callbacks as text lines stamped with virtual time.
type diffLog struct {
	lines []string
	now   func() Time
}

func (l *diffLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf("t=%d ", l.now())+fmt.Sprintf(format, args...))
}

// newKernel adapts Sim.
type newKernel struct {
	s   *Sim
	log *diffLog
}

func (k newKernel) spawn(name string, fn func(dkProc)) dkProc {
	return k.s.Spawn(name, func(p *Proc) { fn(p) })
}
func (k newKernel) after(d time.Duration, fn func())              { k.s.After(d, fn) }
func (k newKernel) afterCancel(d time.Duration, fn func()) func() { return k.s.AfterCancel(d, fn) }
func (k newKernel) setDeadline(d Time)                            { k.s.SetDeadline(d) }
func (k newKernel) run() (Time, error)                            { return k.s.RunE() }

func (k newKernel) ProcBlocked(p *Proc, state, where string) {
	k.log.add("blocked %s %s %s", p.Name(), state, where)
}
func (k newKernel) ProcResumed(p *Proc)       { k.log.add("resumed %s", p.Name()) }
func (k newKernel) ProcDone(p *Proc)          { k.log.add("done %s", p.Name()) }
func (k newKernel) Deadlock(e *DeadlockError) { k.log.add("deadlock %v", e) }
func (k newKernel) ProcUnparked(p, by *Proc) {
	name := "-"
	if by != nil {
		name = by.Name()
	}
	k.log.add("unparked %s by %s", p.Name(), name)
}

// refKernel adapts refSim.
type refKernel struct {
	s   *refSim
	log *diffLog
}

func (k refKernel) spawn(name string, fn func(dkProc)) dkProc {
	return k.s.Spawn(name, func(p *refProc) { fn(p) })
}
func (k refKernel) after(d time.Duration, fn func())              { k.s.After(d, fn) }
func (k refKernel) afterCancel(d time.Duration, fn func()) func() { return k.s.AfterCancel(d, fn) }
func (k refKernel) setDeadline(d Time)                            { k.s.deadline = d }
func (k refKernel) run() (Time, error)                            { return k.s.RunE() }

func (k refKernel) ProcBlocked(p *refProc, state, where string) {
	k.log.add("blocked %s %s %s", p.Name(), state, where)
}
func (k refKernel) ProcResumed(p *refProc)    { k.log.add("resumed %s", p.Name()) }
func (k refKernel) ProcDone(p *refProc)       { k.log.add("done %s", p.Name()) }
func (k refKernel) Deadlock(e *DeadlockError) { k.log.add("deadlock %v", e) }
func (k refKernel) ProcUnparked(p, by *refProc) {
	name := "-"
	if by != nil {
		name = by.Name()
	}
	k.log.add("unparked %s by %s", p.Name(), name)
}

type opKind int

const (
	opCompute     opKind = iota // proc only
	opYield                     // proc only
	opPark                      // proc only
	opUnpark                    // slot target
	opKill                      // slot target
	opSpawn                     // start slot target if it is not running yet
	opAfter                     // run cb after d
	opAfterCancel               // as opAfter, keeping the cancel func in cancel slot target
	opCancel                    // call the cancel func in slot target
	opPanic                     // panic in proc or callback
)

type op struct {
	kind   opKind
	d      time.Duration
	target int
	cb     []op
}

// program is one seeded random workload: procs are slots, spawned
// before the run (the first initial ones) or by opSpawn from inside.
type program struct {
	bodies   [][]op
	recovers []bool // the body recovers a panic, then runs tail
	tails    [][]op
	initial  int
	pre      []op // callback ops run by an event at time zero
	deadline Time
}

const diffCancelSlots = 4

func genProgram(rng *rand.Rand) program {
	n := 1 + rng.Intn(6)
	pr := program{initial: 1 + rng.Intn(n)}
	dur := func() time.Duration {
		return []time.Duration{0, 1, 2, 3, 5, 8}[rng.Intn(6)] * time.Microsecond
	}
	var genCB func(depth int) []op
	genCB = func(depth int) []op {
		var ops []op
		for i := rng.Intn(3); i >= 0; i-- {
			switch r := rng.Intn(100); {
			case r < 35:
				ops = append(ops, op{kind: opUnpark, target: rng.Intn(n)})
			case r < 45:
				ops = append(ops, op{kind: opKill, target: rng.Intn(n)})
			case r < 55:
				ops = append(ops, op{kind: opSpawn, target: rng.Intn(n)})
			case r < 70 && depth < 2:
				ops = append(ops, op{kind: opAfter, d: dur(), cb: genCB(depth + 1)})
			case r < 80 && depth < 2:
				ops = append(ops, op{kind: opAfterCancel, d: dur(), target: rng.Intn(diffCancelSlots), cb: genCB(depth + 1)})
			case r < 97:
				ops = append(ops, op{kind: opCancel, target: rng.Intn(diffCancelSlots)})
			default:
				ops = append(ops, op{kind: opPanic})
			}
		}
		return ops
	}
	genBody := func(max int) []op {
		var ops []op
		for i := rng.Intn(max + 1); i > 0; i-- {
			switch r := rng.Intn(100); {
			case r < 25:
				ops = append(ops, op{kind: opCompute, d: dur()})
			case r < 32:
				ops = append(ops, op{kind: opYield})
			case r < 47:
				ops = append(ops, op{kind: opPark})
			case r < 99:
				// Callback ops, less their panics: a proc panic is
				// rarer than genCB's.
				for _, o := range genCB(0) {
					if o.kind != opPanic {
						ops = append(ops, o)
					}
				}
			default:
				ops = append(ops, op{kind: opPanic})
			}
		}
		return ops
	}
	for i := 0; i < n; i++ {
		pr.bodies = append(pr.bodies, genBody(12))
		pr.recovers = append(pr.recovers, rng.Intn(2) == 0)
		pr.tails = append(pr.tails, genBody(3))
	}
	pr.pre = genCB(0)
	if rng.Intn(4) == 0 {
		pr.deadline = Time(1+rng.Intn(16)) * Time(time.Microsecond)
	}
	return pr
}

// runProgram executes pr on k and returns its log, final time and
// error text.
func runProgram(k dkSim, log *diffLog, pr program) ([]string, Time, string) {
	procs := make([]dkProc, len(pr.bodies))
	cancels := make([]func(), diffCancelSlots)
	kills := 0
	var exec func(p dkProc, ops []op)
	spawn := func(i int) {
		if procs[i] != nil {
			return
		}
		procs[i] = k.spawn(fmt.Sprintf("p%d", i), func(p dkProc) {
			if pr.recovers[i] {
				defer func() {
					if r := recover(); r != nil {
						log.add("%s recovered %v", p.Name(), r)
						exec(p, pr.tails[i])
					}
				}()
			}
			exec(p, pr.bodies[i])
		})
	}
	// exec runs ops in proc context (p != nil) or callback context.
	exec = func(p dkProc, ops []op) {
		for _, o := range ops {
			switch o.kind {
			case opCompute:
				p.Compute(o.d)
			case opYield:
				p.Compute(0)
			case opPark:
				p.Park("park")
			case opUnpark:
				if q := procs[o.target]; q != nil {
					q.Unpark()
				}
			case opKill:
				if q := procs[o.target]; q != nil {
					kills++
					q.Kill(fmt.Errorf("kill %d", kills))
				}
			case opSpawn:
				spawn(o.target)
			case opAfter:
				cb := o.cb
				k.after(o.d, func() {
					log.add("after")
					exec(nil, cb)
				})
			case opAfterCancel:
				cb, slot := o.cb, o.target
				cancels[slot] = k.afterCancel(o.d, func() {
					log.add("after-cancel %d", slot)
					exec(nil, cb)
				})
			case opCancel:
				if c := cancels[o.target]; c != nil {
					c()
				}
			case opPanic:
				if p != nil {
					panic(fmt.Sprintf("%s panics", p.Name()))
				}
				panic(errors.New("callback panics"))
			}
		}
	}
	for i := 0; i < pr.initial; i++ {
		spawn(i)
	}
	k.after(0, func() { exec(nil, pr.pre) })
	if pr.deadline > 0 {
		k.setDeadline(pr.deadline)
	}
	end, err := k.run()
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	return log.lines, end, msg
}

func runOnNew(pr program) ([]string, Time, string) {
	s := NewSim()
	log := &diffLog{now: s.Now}
	k := newKernel{s: s, log: log}
	s.SetObserver(k)
	return runProgram(k, log, pr)
}

func runOnRef(pr program) ([]string, Time, string) {
	s := newRefSim()
	log := &diffLog{now: func() Time { return s.now }}
	k := refKernel{s: s, log: log}
	s.obs = k
	return runProgram(k, log, pr)
}

func TestDifferentialKernel(t *testing.T) {
	const programs = 600
	outcomes := map[string]int{}
	for seed := int64(1); seed <= programs; seed++ {
		pr := genProgram(rand.New(rand.NewSource(seed)))
		gotLog, gotEnd, gotErr := runOnNew(pr)
		wantLog, wantEnd, wantErr := runOnRef(pr)
		if gotEnd != wantEnd || gotErr != wantErr {
			t.Fatalf("seed %d: got end %v err %q, reference end %v err %q",
				seed, gotEnd, gotErr, wantEnd, wantErr)
		}
		for i := 0; i < len(gotLog) || i < len(wantLog); i++ {
			var g, w string
			if i < len(gotLog) {
				g = gotLog[i]
			}
			if i < len(wantLog) {
				w = wantLog[i]
			}
			if g != w {
				t.Fatalf("seed %d: callback %d differs:\n got  %q\n want %q", seed, i, g, w)
			}
		}
		switch {
		case gotErr == "":
			outcomes["clean"]++
		case strings.Contains(gotErr, "deadline"):
			outcomes["deadline"]++
		case strings.Contains(gotErr, "no pending events"):
			outcomes["deadlock"]++
		case strings.Contains(gotErr, "callback panics"):
			outcomes["callback panic"]++
		case strings.Contains(gotErr, "panics"):
			outcomes["proc panic"]++
		case strings.Contains(gotErr, "kill"):
			outcomes["killed"]++
		}
		for _, l := range gotLog {
			if strings.Contains(l, "recovered kill") {
				outcomes["kill recovered"]++
				break
			}
		}
	}
	// The generator must reach every way a run can end, or the
	// comparison proves less than it claims.
	for _, o := range []string{"clean", "deadline", "deadlock", "callback panic", "proc panic", "killed", "kill recovered"} {
		if outcomes[o] == 0 {
			t.Errorf("no program ended with %s; outcomes %v", o, outcomes)
		}
	}
	t.Logf("outcomes over %d programs: %v", programs, outcomes)
}
