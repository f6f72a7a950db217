package main

import (
	_ "embed"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bgpworms/internal/scenario"
	"bgpworms/internal/suite"
)

// attackSuite is the benchmark's own grid (attack-suite.json): every
// registered scenario on small, seeds pinned where the declared Table-3
// outcome holds, under the default arm.
//
//go:embed attack-suite.json
var attackSuite []byte

// suiteRounds is the fewest rounds an attack-suite run makes: two, so
// its figures are a median even when one round outlasts the run length.
const suiteRounds = 2

// runSuite is attack-suite: one round is suite.Run over the fixed grid.
func runSuite(r *runner) error {
	s, err := suite.Parse(r.scale.suite)
	if err != nil {
		return fmt.Errorf("suite grid: %w", err)
	}
	start := time.Now()
	for rounds := 0; !r.untilDone(start, rounds, suiteRounds); rounds++ {
		if err := warmupSetup(r); err != nil {
			return err
		}
		if err := suiteRound(r, s); err != nil {
			return err
		}
	}
	return topUpSetups(r, warmupSetup, warmupSetups)
}

// suiteLayers maps the per-cell child spans suite.Run records to the
// per-layer metric each one sums into.
var suiteLayers = map[string]string{
	"build":     "gen.snapshot_s",
	"detectors": "semantics.train_s",
	"eval":      "scenario.eval_s",
	"dict":      "semantics.dict_eval_s",
}

func suiteRound(r *runner, s *suite.Suite) error {
	var mu sync.Mutex
	var cellTimes []float64 // seconds
	opt := suite.Options{Progress: func(done, total int, c *suite.CellResult, d time.Duration) {
		mu.Lock()
		cellTimes = append(cellTimes, d.Seconds())
		mu.Unlock()
	}}
	// suite.Run records its per-cell spans on the run's trace.
	opt.Trace = r.tr
	runtime.GC() // no earlier round's garbage is charged to this one
	root := r.tr.Start("suite.Run")
	before := len(r.tr.Records())
	t0 := time.Now()
	rep, err := suite.Run(s, opt)
	elapsed := secondsSince(t0)
	root.End()
	if err != nil {
		return err
	}
	r.results = append(r.results, elapsed)
	r.rates = append(r.rates, float64(len(rep.Cells))/elapsed)
	r.latencies = append(r.latencies, elapsed*1000) // one answer per round: the report

	if r.tr != nil {
		for _, rec := range r.tr.Records()[before:] {
			if layer, ok := suiteLayers[rec.Name]; ok {
				r.addLayer(layer, float64(rec.DurUS)/1e6)
			}
		}
		r.setLayer("suite.cells", float64(len(rep.Cells)))
		r.setLayer("suite.cell_max_s", quantile(cellTimes, 1))
	}
	checkSuite(r, rep)
	r.endRound()
	return nil
}

// checkSuite counts one operation per cell: it fails if the cell
// errored, if its outcome differs from the scenario's declared Table-3
// expectation, or if it breached a gate. One more operation checks that
// the grid covers every registered scenario.
func checkSuite(r *runner, rep *suite.Report) {
	covered := map[string]bool{}
	for _, c := range rep.Cells {
		covered[c.Scenario] = true
		r.check(c.Err == "" && c.AsExpected && len(c.Failures) == 0,
			"attack-suite: cell %s: err=%q as_expected=%v failures=%v", c.Key, c.Err, c.AsExpected, c.Failures)
	}
	var missing []string
	for _, name := range scenario.Names() {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	r.check(len(missing) == 0, "attack-suite: grid misses registered scenarios %v", missing)
}
