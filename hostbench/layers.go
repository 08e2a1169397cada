package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/mpi"
	"ovlp/internal/overlap"
	"ovlp/internal/trace"
	"ovlp/internal/vtime"
)

// layerCounts are the per-layer work counts of one traced run: records
// by category and on progress-thread tracks, seen through countSink,
// plus counters from the run's metrics snapshot. A traced virtual run
// is deterministic, so two runs must give equal counts.
type layerCounts struct {
	records, kernel, mpi, coll, overlap, progress int64
	transfers, wireBytes, drains, drainedEvents   int64
}

// countSink is a trace.Sink that counts records as they are emitted.
type countSink struct{ c *layerCounts }

func (s countSink) TraceRec(tk *trace.Track, r trace.Rec) {
	c := s.c
	c.records++
	switch r.Cat {
	case "kernel":
		c.kernel++
	case "mpi":
		c.mpi++
	case "coll":
		c.coll++
	case "overlap":
		c.overlap++
	}
	if tk.Group() == trace.GroupHost && strings.HasSuffix(tk.Name(), ".progress") {
		c.progress++
	}
}

// countRun traces the job in metrics-only mode, so records stream
// through the sink without being retained, and returns the counts.
func countRun(j job, table *calib.Table) (layerCounts, outcome, error) {
	var c layerCounts
	tr := trace.New(trace.Options{MetricsOnly: true})
	tr.AddSink(countSink{&c})
	res, err := simulate(j, table, tr)
	out, err := outcomeOf(res, err)
	c.transfers = counterValue(res.Metrics, "fabric.transfers")
	c.wireBytes = counterValue(res.Metrics, "fabric.wire_bytes")
	c.drains = counterValue(res.Metrics, "overlap.drains")
	c.drainedEvents = counterValue(res.Metrics, "overlap.drained_events")
	return c, out, err
}

// perLayer reports per-layer metrics, apart from the untimed
// end-to-end figures: work counts from two traced runs of the workload
// (which must agree exactly), Go runtime counters from one untraced
// run, and host timings of fixed-size probes of the vtime, fabric, mpi
// and overlap layers and of the trace round trip on CG class B at 16
// ranks. Probes and round trip repeat in rounds while the budget
// lasts; their medians are reported.
func (b *bench) perLayer() {
	deadline := time.Now().Add(b.budget)
	var calibS []float64
	setup := func() (table *calib.Table, j job) {
		for i := 0; i < setupReps; i++ {
			var s float64
			table, j, _, s = b.setupOnce()
			calibS = append(calibS, s)
		}
		return table, j
	}
	table, j := setup()

	var counts [2]layerCounts
	for i := range counts {
		c, out, err := countRun(j, table)
		if err == nil {
			err = b.rec.check(b.name, b.seed, out, false)
		}
		b.tally.record(b.name+" traced run", err)
		counts[i] = c
	}
	var err error
	if counts[0] != counts[1] {
		err = fmt.Errorf("counts differ between two traced runs: %+v vs %+v", counts[0], counts[1])
	}
	b.tally.record("traced count repeat", err)
	c := counts[0]
	for _, m := range []struct {
		name string
		v    int64
	}{
		{"trace.records", c.records},
		{"vtime.blocks", c.kernel},
		{"mpi.calls", c.mpi},
		{"coll.records", c.coll},
		{"overlap.events", c.overlap},
		{"progress.wakeups", c.progress},
		{"fabric.transfers", c.transfers},
		{"overlap.drains", c.drains},
		{"overlap.drained_events", c.drainedEvents},
	} {
		b.put(m.name, float64(m.v), "count")
	}
	b.put("fabric.wire_bytes", float64(c.wireBytes), "B")

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, simErr := simulate(j, table, nil)
	runtime.ReadMemStats(&m1)
	out, err := outcomeOf(res, simErr)
	if err == nil {
		err = b.rec.check(b.name, b.seed, out, false)
	}
	b.tally.record(b.name+" run", err)
	b.put("runtime.mallocs", float64(m1.Mallocs-m0.Mallocs), "count")
	b.put("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC), "count")

	samples := make(map[string][]float64)
	units := make(map[string]string)
	add := func(name string, v float64, unit string) {
		samples[name] = append(samples[name], v)
		units[name] = unit
	}
	rt := workloads[roundTripWorkload](b.seed)
	// A round starts only if it should end within the budget, judged
	// by the round before it.
	rounds := 0
	var last time.Duration
	for ; rounds == 0 || time.Now().Add(last).Before(deadline); rounds++ {
		start := time.Now()
		if rounds > 0 {
			table, _ = setup()
		}
		for _, p := range probes {
			ns, err := p.run(table)
			b.tally.record(p.name+" probe", err)
			add(p.name, ns, "ns")
		}

		runtime.GC()
		t0 := time.Now()
		res, simErr := simulate(rt, table, nil)
		bare := time.Since(t0)
		out, err := outcomeOf(res, simErr)
		if err == nil {
			err = b.rec.check(roundTripWorkload, b.seed, out, false)
		}
		b.tally.record(roundTripWorkload+" run", err)

		runtime.GC()
		trip, err := runRoundTrip(rt, table)
		if err == nil {
			err = b.rec.check(roundTripWorkload, b.seed, trip.out, true)
		}
		if err == nil {
			err = trip.verify()
		}
		b.tally.record(roundTripWorkload+" round trip", err)
		add("trace.emit_x", trip.simulate.Seconds()/bare.Seconds(), "x")
		add("trace.export_s", trip.export.Seconds(), "s")
		add("trace.mb", float64(trip.traceBytes)/(1<<20), "MiB")
		add("trace.spills", float64(trip.spills), "count")
		add("profile.ingest_s", trip.ingest.Seconds(), "s")
		add("profile.ingest_ns_per_rec", float64(trip.ingest.Nanoseconds())/float64(max(trip.records, 1)), "ns")
		add("profile.analyze_s", trip.analyze.Seconds(), "s")
		add("timeres.analyze_s", trip.tres.Seconds(), "s")
		add("diagnose.analyze_s", trip.diagnose.Seconds(), "s")
		add("diagnose.findings", float64(trip.findings), "count")
		last = time.Since(start)
	}
	for name, xs := range samples {
		b.put(name, median(xs), units[name])
	}
	b.put("calib.s", median(calibS), "s")
	b.samples = fmt.Sprintf("samples: %d probe and round-trip rounds, %d calibrations", rounds, len(calibS))
}

// probe times one layer operation at a fixed size and returns host ns
// per operation. It runs the operation once untimed first, so lazy
// set-up is done, then takes the median of probeReps timed batches.
type probe struct {
	name string
	op   func(table *calib.Table) (ns float64, err error)
}

const probeReps = 5

func (p probe) run(table *calib.Table) (float64, error) {
	if _, err := p.op(table); err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < probeReps; i++ {
		ns, err := p.op(table)
		if err != nil {
			return 0, err
		}
		xs = append(xs, ns)
	}
	return median(xs), nil
}

var probes = []probe{
	{"vtime.compute_ns.p64", func(*calib.Table) (float64, error) { return computeProbe(64, 400) }},
	{"vtime.compute_ns.p256", func(*calib.Table) (float64, error) { return computeProbe(256, 100) }},
	{"vtime.park_unpark_ns", func(*calib.Table) (float64, error) { return parkUnparkProbe(20000) }},
	{"vtime.after_ns", func(*calib.Table) (float64, error) { return afterProbe(100, 256) }},
	{"fabric.write_poll_ns", func(*calib.Table) (float64, error) { return writePollProbe(10000, 4<<10) }},
	{"fabric.poll_miss_ns", func(*calib.Table) (float64, error) { return pollMissProbe(20000) }},
	{"mpi.eager_pair_ns", func(*calib.Table) (float64, error) { return pairProbe(4000, 4<<10) }},
	{"mpi.rndv_pair_ns", func(*calib.Table) (float64, error) { return pairProbe(400, 1<<20) }},
	{"overlap.callpair_ns", func(t *calib.Table) (float64, error) { return callPairProbe(t, 200000) }},
	{"overlap.transfer_ns", func(t *calib.Table) (float64, error) { return transferProbe(t, 100000) }},
}

// runSim times sim.Run and checks the simulation reached its end.
func runSim(sim *vtime.Sim) (time.Duration, error) {
	t0 := time.Now()
	_, err := sim.RunE()
	return time.Since(t0), err
}

// computeProbe: procs procs on a bare kernel each Compute steps times,
// with durations of 1–7 µs so the event heap has to order them.
func computeProbe(procs, steps int) (float64, error) {
	sim := vtime.NewSim()
	done := 0
	for i := 0; i < procs; i++ {
		d := time.Duration(1+i%7) * time.Microsecond
		sim.Spawn("compute", func(p *vtime.Proc) {
			for k := 0; k < steps; k++ {
				p.Compute(d)
			}
			done++
		})
	}
	d, err := runSim(sim)
	if err == nil && done != procs {
		err = fmt.Errorf("%d of %d procs finished", done, procs)
	}
	return perOp(d, procs*steps), err
}

// parkUnparkProbe: two procs hand a token back and forth n times with
// Unpark and Park; one operation is one round trip.
func parkUnparkProbe(n int) (float64, error) {
	sim := vtime.NewSim()
	var ping, pong *vtime.Proc
	trips := 0
	ping = sim.Spawn("ping", func(p *vtime.Proc) {
		for k := 0; k < n; k++ {
			pong.Unpark()
			p.Park("ping")
			trips++
		}
	})
	pong = sim.Spawn("pong", func(p *vtime.Proc) {
		for k := 0; k < n; k++ {
			p.Park("pong")
			ping.Unpark()
		}
	})
	d, err := runSim(sim)
	if err == nil && trips != n {
		err = fmt.Errorf("%d of %d round trips", trips, n)
	}
	return perOp(d, n), err
}

// afterProbe: one proc schedules batches of AfterCancel timers at
// distinct instants and computes past them, so they fire in scheduler
// context; one operation is one timer scheduled and fired.
func afterProbe(rounds, batch int) (float64, error) {
	sim := vtime.NewSim()
	fired := 0
	fire := func() { fired++ }
	sim.Spawn("timers", func(p *vtime.Proc) {
		for r := 0; r < rounds; r++ {
			for i := 0; i < batch; i++ {
				sim.AfterCancel(time.Duration(1+i)*time.Nanosecond, fire)
			}
			p.Compute(time.Duration(batch+1) * time.Nanosecond)
		}
	})
	d, err := runSim(sim)
	if err == nil && fired != rounds*batch {
		err = fmt.Errorf("%d of %d timers fired", fired, rounds*batch)
	}
	return perOp(d, rounds*batch), err
}

// writePollProbe: on a 2-node fabric, node 0 posts an RDMA write of
// size bytes and polls its CQ, parking between arrivals, until the
// completion arrives; one operation is one write plus its polls.
func writePollProbe(n, size int) (float64, error) {
	sim := vtime.NewSim()
	fab := fabric.New(sim, 2, fabric.DefaultCostModel())
	defer fab.Shutdown()
	nic := fab.NIC(0)
	completed := 0
	writer := sim.Spawn("writer", func(p *vtime.Proc) {
		for k := 0; k < n; k++ {
			nic.RDMAWrite(p, 1, size, 0, nil)
			for {
				if nic.Pending() {
					if cqe := nic.PollCQ(p); cqe != nil {
						if cqe.Status == fabric.StatusOK {
							completed++
						}
						break
					}
					continue
				}
				p.Park("cq")
			}
		}
	})
	nic.SetNotify(writer.Unpark)
	d, err := runSim(sim)
	if err == nil && completed != n {
		err = fmt.Errorf("%d of %d writes completed", completed, n)
	}
	return perOp(d, n), err
}

// pollMissProbe: PollCQ n times on an empty completion queue.
func pollMissProbe(n int) (float64, error) {
	sim := vtime.NewSim()
	fab := fabric.New(sim, 2, fabric.DefaultCostModel())
	defer fab.Shutdown()
	nic := fab.NIC(0)
	hits := 0
	sim.Spawn("poller", func(p *vtime.Proc) {
		for k := 0; k < n; k++ {
			if nic.PollCQ(p) != nil {
				hits++
			}
		}
	})
	d, err := runSim(sim)
	if err == nil && hits != 0 {
		err = fmt.Errorf("%d polls of an empty CQ returned a completion", hits)
	}
	return perOp(d, n), err
}

// pairProbe: 2 uninstrumented ranks exchange size bytes n times with
// Isend, Irecv and Wait on both requests, under the pipelined RDMA
// protocol. A warm-up exchange and a barrier precede the timed loop,
// so world start-up and first registrations are not counted.
func pairProbe(n, size int) (float64, error) {
	var start, end time.Time
	got := 0
	_, err := cluster.RunE(cluster.Config{Procs: 2, MPI: mpi.Config{Protocol: mpi.PipelinedRDMA}}, func(r *mpi.Rank) {
		peer := 1 - r.ID()
		pair := func() {
			s := r.Isend(peer, 0, size)
			q := r.Irecv(peer, 0)
			r.Wait(s)
			if st := r.Wait(q); st.Size == size && r.ID() == 0 {
				got++
			}
		}
		pair()
		r.Barrier()
		if r.ID() == 0 {
			start = time.Now()
		}
		for k := 0; k < n; k++ {
			pair()
		}
		r.Barrier()
		if r.ID() == 0 {
			end = time.Now()
		}
	})
	if err == nil && got != n+1 {
		err = fmt.Errorf("%d of %d receives had the sent size", got, n+1)
	}
	return perOp(end.Sub(start), n), err
}

// stepClock is an overlap.Clock advancing 100 ns per reading, so the
// monitor probes measure the hooks and not a clock.
type stepClock struct{ t time.Duration }

func (c *stepClock) Now() time.Duration { c.t += 100 * time.Nanosecond; return c.t }

// callPairProbe: n CallEnter/CallExit pairs, the hooks around every
// library call.
func callPairProbe(table *calib.Table, n int) (float64, error) {
	m := overlap.NewMonitor(overlap.Config{Clock: &stepClock{}, Table: table})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		m.CallEnter()
		m.CallExit()
	}
	d := time.Since(t0)
	return perOp(d, n), nil
}

// transferProbe: n fully instrumented 64 KiB transfers (enter, begin,
// exit, enter, end, exit), then a check that the report counts them.
func transferProbe(table *calib.Table, n int) (float64, error) {
	m := overlap.NewMonitor(overlap.Config{Clock: &stepClock{}, Table: table})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		m.CallEnter()
		m.XferBegin(id, 64<<10)
		m.CallExit()
		m.CallEnter()
		m.XferEnd(id, 0)
		m.CallExit()
	}
	d := time.Since(t0)
	var err error
	if got := m.Finalize().Total().Count; got != n {
		err = fmt.Errorf("report counts %d of %d transfers", got, n)
	}
	return perOp(d, n), err
}

func perOp(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / float64(n)
}
