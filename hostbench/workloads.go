package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/coll"
	"ovlp/internal/diagnose"
	"ovlp/internal/mpi"
	"ovlp/internal/nas"
	"ovlp/internal/overlap"
	"ovlp/internal/profile"
	"ovlp/internal/progress"
	"ovlp/internal/timeres"
	"ovlp/internal/trace"
)

// job is one workload's inputs, built from the seed: the library
// configuration and the program every rank runs. The calibration table
// and the tracer are supplied per run.
type job struct {
	procs int
	mpi   mpi.Config
	main  func(r *mpi.Rank)
}

// workloads maps a workload name to its constructor. Each takes the
// benchmark seed; the seed sets the modelled inputs, never the program.
var workloads = map[string]func(seed int64) job{
	"cg-b-p64":                  func(seed int64) job { return cgJob(64, seed) },
	"iallreduce-rd-p256-thread": iallreduceJob,
	"trace-roundtrip-cg-b-p16":  func(seed int64) job { return cgJob(16, seed) },
}

// roundTripWorkload is the workload whose timed run is the whole
// trace-export-ingest-analyze pipeline rather than a bare simulation.
const roundTripWorkload = "trace-roundtrip-cg-b-p16"

// cgJob is NAS CG class B for 3 outer iterations under the pipelined
// RDMA protocol. The seed draws the modelled node speed within ±5% of
// the stock 1 GFLOP/s, which shifts every compute phase and so the
// interleaving of messages, but not the message pattern.
func cgJob(procs int, seed int64) job {
	rng := rand.New(rand.NewSource(seed))
	m := nas.Machine{FlopRate: 1e9 * (0.95 + 0.1*rng.Float64())}
	return job{
		procs: procs,
		mpi:   mpi.Config{Protocol: mpi.PipelinedRDMA},
		main: func(r *mpi.Rank) {
			nas.Run(nas.CG, r, nas.Params{Class: nas.ClassB, MaxIters: 3, Machine: m})
		},
	}
}

// iallreduceJob is 256 ranks running 10 × 64 KiB recursive-doubling
// Iallreduce, each overlapped with a Compute drawn per rank and
// repetition from the seed, uniform in 400–600 µs, then WaitColl. A
// progress thread per rank wakes every 10 µs to advance the schedules.
func iallreduceJob(seed int64) job {
	const procs, reps, size = 256, 10, 64 << 10
	rng := rand.New(rand.NewSource(seed))
	work := make([]time.Duration, procs*reps)
	for i := range work {
		work[i] = 400*time.Microsecond + time.Duration(rng.Int63n(int64(200*time.Microsecond)+1))
	}
	return job{
		procs: procs,
		mpi: mpi.Config{
			Protocol: mpi.PipelinedRDMA,
			CollAlgo: coll.RecDouble,
			Progress: progress.Config{Mode: progress.Thread, Quantum: 10 * time.Microsecond},
		},
		main: func(r *mpi.Rank) {
			for k := 0; k < reps; k++ {
				cr := r.Iallreduce(size)
				r.Compute(work[r.ID()*reps+k])
				r.WaitColl(cr)
			}
		},
	}
}

// simulate runs the job once on the virtual backend, instrumented with
// the given calibration table and traced into tr when tr is non-nil.
func simulate(j job, table *calib.Table, tr *trace.Tracer) (cluster.Result, error) {
	cfg := j.mpi
	cfg.Instrument = &mpi.InstrumentConfig{Table: table}
	return cluster.RunE(cluster.Config{Procs: j.procs, MPI: cfg, Trace: tr}, j.main)
}

// outcome is the simulated result of one run that the benchmark checks.
type outcome struct {
	Transfers  int     `json:"transfers"`
	DurationNS int64   `json:"duration_ns"`
	MinPct     float64 `json:"min_pct"`
	MaxPct     float64 `json:"max_pct"`
	// CritPathNS is the critical-path length of the profile ingested
	// from the exported trace; zero for runs that export no trace.
	CritPathNS int64 `json:"critpath_ns,omitempty"`
}

// outcomeOf summarizes a finished run and checks what holds on every
// seed: no rank failed, every rank's report exists and its bounds
// satisfy 0 <= min <= max <= 100, and so do the aggregate's.
func outcomeOf(res cluster.Result, err error) (outcome, error) {
	if err != nil {
		return outcome{}, fmt.Errorf("run failed: %w", err)
	}
	for i, e := range res.RankErrors {
		if e != nil {
			return outcome{}, fmt.Errorf("rank %d: %v", i, e)
		}
	}
	for i, rep := range res.Reports {
		if rep == nil {
			return outcome{}, fmt.Errorf("rank %d has no overlap report", i)
		}
		if err := checkBounds(rep.Total()); err != nil {
			return outcome{}, fmt.Errorf("rank %d: %w", i, err)
		}
	}
	tot := overlap.Aggregate(res.Reports).Total()
	if err := checkBounds(tot); err != nil {
		return outcome{}, fmt.Errorf("aggregate: %w", err)
	}
	return outcome{
		Transfers:  tot.Count,
		DurationNS: int64(res.Duration),
		MinPct:     tot.MinPercent(),
		MaxPct:     tot.MaxPercent(),
	}, nil
}

func checkBounds(m overlap.Measures) error {
	lo, hi := m.MinPercent(), m.MaxPercent()
	if !(0 <= lo && lo <= hi && hi <= 100) {
		return fmt.Errorf("overlap bounds min %.4f%% max %.4f%% violate 0 <= min <= max <= 100", lo, hi)
	}
	return nil
}

// roundTrip is one pass of the offline-analysis pipeline over a fully
// traced run, with the host time of each stage.
type roundTrip struct {
	out                                               outcome
	simulate, export, ingest, analyze, tres, diagnose time.Duration
	traceBytes                                        int
	records                                           int // host and wire records ingested
	findings                                          int
	spills                                            int64
	// verify rebuilds the profile from the in-memory tracer and checks
	// that its critical path equals the ingested one. It is kept out
	// of the timed stages.
	verify func() error
}

func (rt roundTrip) total() time.Duration {
	return rt.simulate + rt.export + rt.ingest + rt.analyze + rt.tres + rt.diagnose
}

// runRoundTrip traces the job with full retention, exports it to
// Chrome JSON, re-ingests the bytes the way ovlprof reads a trace file,
// and runs the blame profiler, the time-resolved analyzer and the
// diagnosis engine over the ingested input.
func runRoundTrip(j job, table *calib.Table) (roundTrip, error) {
	tr := trace.New(trace.Options{})
	t0 := time.Now()
	res, err := simulate(j, table, tr)
	t1 := time.Now()
	out, err := outcomeOf(res, err)
	if err != nil {
		return roundTrip{}, err
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return roundTrip{}, fmt.Errorf("export: %w", err)
	}
	t2 := time.Now()
	in, err := profile.FromChromeJSON(bytes.NewReader(buf.Bytes()), table)
	if err != nil {
		return roundTrip{}, fmt.Errorf("ingest: %w", err)
	}
	t3 := time.Now()
	p, err := profile.Analyze(in)
	if err != nil {
		return roundTrip{}, fmt.Errorf("profile: %w", err)
	}
	t4 := time.Now()
	snap, err := timeres.FromInput(in, timeres.Options{})
	if err != nil {
		return roundTrip{}, err
	}
	t5 := time.Now()
	rep := diagnose.Analyze(diagnose.Input{Profile: p, TimeRes: snap, Duration: p.Duration, Procs: p.Ranks})
	t6 := time.Now()

	out.CritPathNS = p.Critical.Length.Nanoseconds()
	rt := roundTrip{
		out:        out,
		simulate:   t1.Sub(t0),
		export:     t2.Sub(t1),
		ingest:     t3.Sub(t2),
		analyze:    t4.Sub(t3),
		tres:       t5.Sub(t4),
		diagnose:   t6.Sub(t5),
		traceBytes: buf.Len(),
		findings:   len(rep.Findings),
		spills:     counterValue(res.Metrics, "trace.spills"),
		verify: func() error {
			mem, err := profile.Analyze(profile.FromTracer(tr, table, res.Reports))
			if err != nil {
				return fmt.Errorf("in-memory profile: %w", err)
			}
			if mem.Critical.Length != p.Critical.Length {
				return fmt.Errorf("critical path: ingested %d ns, in-memory %d ns",
					p.Critical.Length.Nanoseconds(), mem.Critical.Length.Nanoseconds())
			}
			return nil
		},
	}
	for _, rs := range in.Ranks {
		rt.records += len(rs.Recs)
	}
	rt.records += len(in.Wire)
	return rt, nil
}

// counterValue reads one counter from a metrics snapshot (0 when the
// snapshot is nil or the counter never fired).
func counterValue(s *trace.Snapshot, name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
