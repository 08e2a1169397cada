// Command hostbench measures what a simulated run and its overlap
// analysis cost the host: end-to-end host time, throughput and memory
// per workload (-trace 0), or per-layer counts and probe timings
// (-trace 1). Every simulated run is checked against the outcome the
// workload must produce, and the last line of standard output is one
// JSON object with the checks' tally and the metrics.
//
// Usage, from the repository root:
//
//	bash hostbench/run.sh --workload cg-b-p64 --seed 1 --seconds 42 --trace 0
//
// Workloads: cg-b-p64, iallreduce-rd-p256-thread and
// trace-roundtrip-cg-b-p16 (see README.md for what each stresses).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations and remembers why any failed.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) record(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "hostbench: FAIL %s: %v\n", what, err)
	}
}

// bench is one invocation: a workload, its seed and its time budget.
type bench struct {
	name    string
	seed    int64
	budget  time.Duration
	build   func(seed int64) job
	rec     recorded
	tally   *tally
	metrics map[string]metric
	// samples states how many measurements the reported medians
	// were taken over.
	samples string
}

func (b *bench) put(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "how long the repeated runs are measured, in seconds")
	traced := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from a traced run and probes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	build, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "usage: hostbench --workload {%s} [--seed n] [--seconds s] [--trace 0|1]\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	rec, err := loadRecorded()
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	// The simulator runs one simulated proc at a time. With a second P,
	// each goroutine handoff may wake a goroutine on the other CPU, and
	// the figures then depend on that CPU's load from outside the
	// benchmark: on a 2-vCPU host one P measured both faster and
	// steadier. The garbage collector shares the P and counts in run_s.
	runtime.GOMAXPROCS(1)

	b := &bench{
		name:    *name,
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		build:   build,
		rec:     rec,
		tally:   &tally{log: stderr},
		metrics: make(map[string]metric),
	}
	if *traced == 1 {
		b.perLayer()
	} else {
		b.endToEnd()
	}

	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-28s %16.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	fmt.Fprintln(stdout, b.samples)
	line, err := json.Marshal(result{
		Correct:   b.tally.failed == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setupReps is how many set-ups precede each run. One set-up takes
// only milliseconds, so set-ups are spread over the whole measurement,
// like the runs, and their median is reported.
const setupReps = 5

// setupOnce calibrates the default cost model on the standard sizes
// with 5 repetitions, as cluster.RunE does for an instrumented run
// without a table, and builds the workload from the seed. It returns
// both with the host seconds the whole set-up and the calibration
// alone took.
func (b *bench) setupOnce() (table *calib.Table, j job, setupS, calibS float64) {
	t0 := time.Now()
	table = cluster.Calibrate(fabric.CostModel{}, calib.StandardSizes(), 5)
	t1 := time.Now()
	j = b.build(b.seed)
	t2 := time.Now()
	return table, j, t2.Sub(t0).Seconds(), t1.Sub(t0).Seconds()
}

// minRuns is the fewest timed runs a measurement makes, however short
// its budget.
const minRuns = 3

// endToEnd reports what a user of the simulator sees: set-up time,
// host seconds per run, instrumented transfers per host second, heap
// allocated per run and the process's peak resident memory. One
// untimed warm-up run lets lazy set-up and heap growth settle; then
// runs repeat while the budget lasts and the medians are reported.
// Every run, the warm-up included, is checked, and every run uses the
// table and job of the set-ups just before it.
//
// Host times are reported at the nominal host speed. The reference
// loop runs before the first set-up and after every run, and a run and
// the set-ups before it are scaled by refNominal over the mean of the
// two reference times around them.
func (b *bench) endToEnd() {
	var setupS, runS, rawS, refS, allocMB []float64
	deadline := time.Now().Add(b.budget)
	runtime.GC()
	before := refLoop()
	refS = append(refS, before.Seconds())
	n := 0 // runs so far; the warm-up is run 0
	one := func() {
		var (
			table  *calib.Table
			j      job
			setups []float64
		)
		for i := 0; i < setupReps; i++ {
			var s float64
			table, j, s, _ = b.setupOnce()
			setups = append(setups, s)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var (
			d        time.Duration
			out      outcome
			err      error
			verify   func() error
			exported = b.name == roundTripWorkload
		)
		if exported {
			var rt roundTrip
			rt, err = runRoundTrip(j, table)
			d, out, verify = rt.total(), rt.out, rt.verify
		} else {
			t0 := time.Now()
			res, simErr := simulate(j, table, nil)
			d = time.Since(t0)
			out, err = outcomeOf(res, simErr)
		}
		runtime.ReadMemStats(&m1)
		// Collect the run's garbage now, so that neither the reference
		// loop nor the next set-ups and run pay for it.
		runtime.GC()
		after := refLoop()
		scale := refNominal.Seconds() / ((before + after).Seconds() / 2)
		before = after
		if err == nil {
			err = b.rec.check(b.name, b.seed, out, exported)
		}
		if err == nil && verify != nil {
			err = verify()
		}
		b.tally.record(b.name+" run", err)
		for _, s := range setups {
			setupS = append(setupS, s*scale)
		}
		runS = append(runS, d.Seconds()*scale)
		rawS = append(rawS, d.Seconds())
		refS = append(refS, after.Seconds())
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		fmt.Fprintf(b.tally.log, "hostbench: run %d: %.4f s, %.4f s scaled, reference loop %.4f s\n",
			n, d.Seconds(), d.Seconds()*scale, after.Seconds())
		n++
	}

	// The warm-up counts against the budget, and a run starts only if
	// it should end within the budget, judged by the one before it, so
	// an invocation takes --seconds, not --seconds plus a run or two.
	last := timed(one) // warm-up
	runS, rawS, allocMB = nil, nil, nil
	for len(runS) < minRuns || time.Now().Add(last).Before(deadline) {
		last = timed(one)
	}
	b.put("setup_s", median(setupS), "s")
	b.put("run_s", median(runS), "s")
	// Every checked run made exactly the recorded number of transfers.
	b.put("xfers_per_s", float64(b.rec.Outcomes[b.name].Transfers)/median(runS), "1/s")
	b.put("alloc_mb", median(allocMB), "MiB")
	b.put("max_rss_mb", maxRSSMB(), "MiB")
	b.samples = fmt.Sprintf("samples: %d timed runs, %d set-ups; reference loop median %.4f s (nominal %.4f s); unscaled run_s median %.4f s",
		len(runS), len(setupS), median(refS), refNominal.Seconds(), median(rawS))
}

// timed calls f and returns how long it took.
func timed(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value (the mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
