package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// recordedJSON holds the simulated outcome of every workload at the
// recorded seed. The virtual backend is deterministic, so a run at that
// seed must reproduce these values exactly; the transfer count does not
// depend on the seed and must match on every run.
//
//go:embed recorded.json
var recordedJSON []byte

// recorded is the parsed form of recorded.json.
type recorded struct {
	Seed     int64              `json:"seed"`
	Outcomes map[string]outcome `json:"outcomes"`
}

func loadRecorded() (recorded, error) {
	var rec recorded
	if err := json.Unmarshal(recordedJSON, &rec); err != nil {
		return rec, fmt.Errorf("recorded.json: %w", err)
	}
	return rec, nil
}

// check compares one run's outcome with the recorded one: the transfer
// count on every seed, and at the recorded seed the virtual duration
// and overlap bounds too, plus the critical-path length when the run
// exported and re-ingested its trace.
func (rec recorded) check(workload string, seed int64, got outcome, exported bool) error {
	want, ok := rec.Outcomes[workload]
	if !ok {
		return fmt.Errorf("no recorded outcome for %s", workload)
	}
	if got.Transfers != want.Transfers {
		return fmt.Errorf("transfers: got %d, recorded %d", got.Transfers, want.Transfers)
	}
	if seed != rec.Seed {
		return nil
	}
	if got.DurationNS != want.DurationNS {
		return fmt.Errorf("virtual duration: got %d ns, recorded %d ns", got.DurationNS, want.DurationNS)
	}
	if got.MinPct != want.MinPct || got.MaxPct != want.MaxPct {
		return fmt.Errorf("overlap bounds: got [%v, %v]%%, recorded [%v, %v]%%",
			got.MinPct, got.MaxPct, want.MinPct, want.MaxPct)
	}
	if exported && got.CritPathNS != want.CritPathNS {
		return fmt.Errorf("critical path: got %d ns, recorded %d ns", got.CritPathNS, want.CritPathNS)
	}
	return nil
}
