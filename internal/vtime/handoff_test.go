package vtime

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// A cancel func called after its event fired must not cancel the
// event that reuses the fired one's slot.
func TestStaleCancelSparesRecycledEvent(t *testing.T) {
	s := NewSim()
	fired := false
	var cancel func()
	cancel = s.AfterCancel(time.Microsecond, func() {
		// The firing event is already back on the free list, so this
		// After reuses it.
		s.After(time.Microsecond, func() { fired = true })
		cancel()
	})
	if end := s.Run(); !fired || end != Time(2*time.Microsecond) {
		t.Fatalf("fired = %v, end = %v; a stale cancel hit the recycled event", fired, end)
	}
}

// Kill during Compute, once earlier Compute events have been recycled:
// the cancelled timer stays in the heap until its time, so it must not
// be handed out again before then, and it must never resume the proc.
func TestKillDuringComputeAfterRecycling(t *testing.T) {
	s := NewSim()
	var got []string
	note := func(format string, args ...any) {
		got = append(got, fmt.Sprintf("%v ", s.Now())+fmt.Sprintf(format, args...))
	}
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() {
			note("victim %v", recover())
			for i := 0; i < 3; i++ {
				p.Compute(time.Microsecond)
				note("victim step %d", i)
			}
		}()
		for i := 0; i < 5; i++ {
			p.Compute(time.Microsecond)
		}
		p.Compute(time.Millisecond)
		note("victim finished its long compute")
	})
	s.Spawn("killer", func(p *Proc) {
		p.Compute(10 * time.Microsecond)
		victim.Kill(errors.New("crash"))
		for i := 0; i < 3; i++ {
			p.Compute(2 * time.Microsecond)
			note("killer step %d", i)
		}
	})
	end := s.Run()
	want := []string{
		"10µs victim crash",
		"11µs victim step 0",
		"12µs killer step 0",
		"12µs victim step 1",
		"13µs victim step 2",
		"14µs killer step 1",
		"16µs killer step 2",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	// The cancelled 1ms timer is discarded without advancing the clock.
	if end != Time(16*time.Microsecond) {
		t.Fatalf("end = %v, want 16µs", end)
	}
}

// A panic in an After callback that fires while a proc holds control
// (the callback then runs on that proc's goroutine) ends the run with
// the panic, even though the proc's body has a recovering defer.
func TestCallbackPanicNotSwallowedByProcDefer(t *testing.T) {
	s := NewSim()
	swallowed := false
	s.Spawn("guard", func(p *Proc) {
		defer func() {
			if recover() != nil {
				swallowed = true
			}
		}()
		s.After(time.Microsecond, func() { panic("boom") })
		p.Compute(time.Millisecond)
	})
	_, err := s.RunE()
	if err == nil || err.Error() != "vtime: boom" {
		t.Fatalf("err = %v, want vtime: boom", err)
	}
	if swallowed {
		t.Fatal("the proc's recovering defer swallowed the callback panic")
	}
}

// pingPong runs two procs for n rounds of Compute, Yield and a
// Park/Unpark exchange.
func pingPong(n int) {
	s := NewSim()
	var a, b *Proc
	a = s.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Compute(time.Microsecond)
			p.Yield()
			b.Unpark()
			p.Park("ping")
		}
	})
	b = s.Spawn("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Park("pong")
			p.Compute(time.Microsecond)
			a.Unpark()
		}
	})
	s.Run()
}

// Blocking allocates nothing: for a fixed set of procs, allocations do
// not grow with the number of Compute, Yield and Park/Unpark calls.
func TestBlockingDoesNotAllocate(t *testing.T) {
	few := testing.AllocsPerRun(5, func() { pingPong(100) })
	many := testing.AllocsPerRun(5, func() { pingPong(10000) })
	if many-few >= 10 {
		t.Fatalf("allocations grow with blocking calls: %v for 100 rounds, %v for 10000", few, many)
	}
}

// BenchmarkCompute times one Compute handoff among 64 procs.
func BenchmarkCompute(b *testing.B) {
	const procs = 64
	b.ReportAllocs()
	s := NewSim()
	for i := 0; i < procs; i++ {
		d := time.Duration(1+i%7) * time.Microsecond
		s.Spawn("p", func(p *Proc) {
			for j := 0; j < b.N/procs+1; j++ {
				p.Compute(d)
			}
		})
	}
	b.ResetTimer()
	s.Run()
}

// BenchmarkParkUnpark times one round trip of a Park/Unpark exchange
// between two procs.
func BenchmarkParkUnpark(b *testing.B) {
	b.ReportAllocs()
	s := NewSim()
	var a, c *Proc
	a = s.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Unpark()
			p.Park("ping")
		}
	})
	c = s.Spawn("c", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Park("pong")
			a.Unpark()
		}
	})
	b.ResetTimer()
	s.Run()
}

// The event heap pops in (at, seq) order under interleaved pushes and
// pops, with many ties on at.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	var pending []*event // reference: the minimum is found by scan
	seq := uint64(0)
	for step := 0; step < 20000; step++ {
		if len(pending) == 0 || rng.Intn(3) > 0 {
			seq++
			e := &event{at: Time(rng.Intn(50)), seq: seq}
			h.push(e)
			pending = append(pending, e)
			continue
		}
		min := 0
		for i, e := range pending {
			if e.before(pending[min]) {
				min = i
			}
		}
		if got := h.pop(); got != pending[min] {
			t.Fatalf("step %d: popped (%v, %d), want (%v, %d)", step, got.at, got.seq, pending[min].at, pending[min].seq)
		}
		pending = append(pending[:min], pending[min+1:]...)
	}
}
