package main

import (
	"io"
	"testing"

	"ovlp/internal/calib"
	"ovlp/internal/cluster"
	"ovlp/internal/fabric"
	"ovlp/internal/overlap"
)

// corrupt returns a copy of rec with one workload's outcome edited.
func corrupt(rec recorded, workload string, edit func(*outcome)) recorded {
	c := recorded{Seed: rec.Seed, Outcomes: make(map[string]outcome)}
	for k, v := range rec.Outcomes {
		c.Outcomes[k] = v
	}
	o := c.Outcomes[workload]
	edit(&o)
	c.Outcomes[workload] = o
	return c
}

// TestCorruptedRecordFailsCheck runs the round-trip workload at the
// recorded seed, checks that the run passes against recorded.json, and
// that it fails once any recorded virtual value or the transfer count
// is off by one unit.
func TestCorruptedRecordFailsCheck(t *testing.T) {
	rec, err := loadRecorded()
	if err != nil {
		t.Fatal(err)
	}
	table := cluster.Calibrate(fabric.CostModel{}, calib.StandardSizes(), 5)
	rt, err := runRoundTrip(workloads[roundTripWorkload](rec.Seed), table)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.verify(); err != nil {
		t.Fatal(err)
	}
	if err := rec.check(roundTripWorkload, rec.Seed, rt.out, true); err != nil {
		t.Fatalf("recorded seed fails its own record: %v", err)
	}

	edits := map[string]func(*outcome){
		"transfers":   func(o *outcome) { o.Transfers++ },
		"duration_ns": func(o *outcome) { o.DurationNS++ },
		"min_pct":     func(o *outcome) { o.MinPct += 1e-9 },
		"max_pct":     func(o *outcome) { o.MaxPct -= 1e-9 },
		"critpath_ns": func(o *outcome) { o.CritPathNS-- },
	}
	for field, edit := range edits {
		bad := corrupt(rec, roundTripWorkload, edit)
		if err := bad.check(roundTripWorkload, rec.Seed, rt.out, true); err == nil {
			t.Errorf("corrupted %s passes the check", field)
		}
	}

	// On another seed only the seed-independent transfer count binds.
	other := rec.Seed + 1
	if err := corrupt(rec, roundTripWorkload, edits["duration_ns"]).check(roundTripWorkload, other, rt.out, true); err != nil {
		t.Errorf("virtual duration checked on a seed with no record: %v", err)
	}
	if err := corrupt(rec, roundTripWorkload, edits["transfers"]).check(roundTripWorkload, other, rt.out, true); err == nil {
		t.Error("corrupted transfer count passes on another seed")
	}
}

func TestBoundsCheck(t *testing.T) {
	for _, m := range []overlap.Measures{
		{DataTransferTime: 100, MinOverlapped: 60, MaxOverlapped: 50},
		{DataTransferTime: 100, MinOverlapped: -1, MaxOverlapped: 50},
		{DataTransferTime: 100, MinOverlapped: 10, MaxOverlapped: 101},
	} {
		if checkBounds(m) == nil {
			t.Errorf("bounds %+v pass", m)
		}
	}
	if err := checkBounds(overlap.Measures{DataTransferTime: 100, MinOverlapped: 10, MaxOverlapped: 50}); err != nil {
		t.Error(err)
	}
}

func TestBadArgumentsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cg-b-p64", "--trace", "2"},
		{"--workload", "cg-b-p64", "--seconds", "0"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
