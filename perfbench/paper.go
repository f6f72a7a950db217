package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"bgpworms/internal/core"
	"bgpworms/internal/gen"
	"bgpworms/internal/obs"
)

// runPaper is paper-medium: one round builds the medium world, runs a
// month of churn, computes every §4 table and figure from the in-memory
// dataset, then writes every collector's archive to memory and
// recomputes the same artefacts from those MRT bytes.
func runPaper(r *runner) error {
	start := time.Now()
	for rounds := 0; !r.untilDone(start, rounds, 1); rounds++ {
		if err := warmupSetup(r); err != nil {
			return err
		}
		if err := paperRound(r, r.scale.paper); err != nil {
			return err
		}
	}
	return topUpSetups(r, warmupSetup, warmupSetups)
}

// warmupSetups is how many warm-up samples the simulator workloads
// take: one warm-up lasts about 25 ms, so a median of fifteen.
const warmupSetups = 15

// topUpSetups repeats a workload's set-up until the run holds n
// samples, so setup_s is always a median.
func topUpSetups(r *runner, setup func(*runner) error, n int) error {
	for len(r.setups) < n {
		if err := setup(r); err != nil {
			return err
		}
	}
	return nil
}

// warmupSetup is the set-up of the simulator workloads: the tiny world
// built and churned once, so lazily built package state, code pages and
// the heap are warm before a timed round. Work a later change moves into
// package-level caches shows here.
func warmupSetup(r *runner) error {
	runtime.GC()
	t0 := time.Now()
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		return err
	}
	if _, err := w.RunChurn(); err != nil {
		return err
	}
	r.setups = append(r.setups, secondsSince(t0))
	return nil
}

// paperArtefacts renders every §4 artefact of an Analysis, one string
// per artefact, in a fixed order; the two paths must agree on each.
func paperArtefacts(a *core.Analysis) []struct{ name, text string } {
	all, bh := a.Prop.Figure5a()
	off, on := a.Prop.Figure5c(10)
	distinct, private := a.Prop.OffPathStats()
	return []struct{ name, text string }{
		{"Table 1", core.RenderTable1(a.Table1)},
		{"Table 2", core.RenderTable2(a.Table2)},
		{"Fig 4a", core.RenderFigure4a(a.Fig4a) + fmt.Sprintf("share=%v", a.Share)},
		{"Fig 4b", core.RenderFigure4b(a.Fig4b)},
		{"Fig 5a", core.RenderFigure5a(all, bh)},
		{"Fig 5b", core.RenderFigure5b(a.Prop.Figure5b(2, 6))},
		{"Fig 5c", core.RenderFigure5c(off, on) + fmt.Sprintf("offpath=%d/%d", distinct, private)},
		{"transit propagators", fmt.Sprintf("%+v", a.Transit)},
		{"Fig 6 summary", core.RenderFilterSummary(a.Filter.Summarize(1))},
	}
}

// paperRound is one timed round at preset p. It returns an error only
// when the program cannot run at all; wrong outputs are counted checks.
func paperRound(r *runner, p gen.Params) error {
	runtime.GC() // no earlier round's garbage is charged to this one
	deliveries0, observations0 := simnetDeliveries(), collectorObservations()
	root := r.tr.Start("paper-round")
	t0 := time.Now()

	sp := startLayer(root, "gen.Build")
	w, err := gen.Build(p)
	if err != nil {
		return err
	}
	r.addLayer("gen.build_s", sp.end())
	sp = startLayer(root, "gen.RunChurn")
	if _, err := w.RunChurn(); err != nil {
		return err
	}
	r.addLayer("gen.churn_s", sp.end())

	known := w.Registry.All()
	pipe := core.NewPipeline(0)
	sp = startLayer(root, "core.Analyze")
	mem := pipe.Analyze(core.FromCollectors(w.Collectors), known)
	r.addLayer("core.analyze_s", sp.end())

	// The MRT leg: each collector's month written to memory, then
	// streamed back into one accumulator.
	acc := core.NewAccumulator(known)
	var records, archiveBytes int
	var archives [][]byte
	for _, c := range w.Collectors {
		sp = startLayer(root, "collector.WriteUpdatesMRT")
		var buf bytes.Buffer
		n, err := c.WriteUpdatesMRT(&buf)
		if err != nil {
			return err
		}
		r.addLayer("collector.mrt_write_s", sp.end())
		records += n
		archiveBytes += buf.Len()
		archives = append(archives, buf.Bytes()) // reading buf leaves these bytes intact
		sp = startLayer(root, "core.StreamMRTUpdates")
		meta, err := core.StreamMRTUpdates(string(c.Platform), c.Name, &buf, func(u *core.Update) error {
			acc.Add(u)
			return nil
		})
		if err != nil {
			return err
		}
		acc.AddCollector(meta)
		r.addLayer("core.stream_s", sp.end())
	}
	sp = startLayer(root, "Accumulator.Analysis")
	wire := acc.Analysis(pipe)
	r.addLayer("core.stream_s", sp.end())
	elapsed := secondsSince(t0)
	root.End()
	r.results = append(r.results, elapsed)
	r.latencies = append(r.latencies, elapsed*1000) // one answer per round: every figure
	r.rates = append(r.rates, float64(records)/elapsed)
	r.addLayer("mrt.archive_bytes", float64(archiveBytes))
	r.addLayer("simnet.deliveries", float64(simnetDeliveries()-deliveries0))
	r.addLayer("collector.observations", float64(collectorObservations()-observations0))

	// The benchmark's own tally of BGP4MP update records, outside the
	// timed leg, checked against Table 1.
	counted := 0
	for _, a := range archives {
		counted += countBGP4MPUpdates(a)
	}
	checkPaper(r, mem, wire, counted)
	r.endRound()
	return nil
}

// checkPaper compares every artefact computed from MRT bytes with the
// in-memory one, and Table 1's message total with the benchmark's own
// record count. The Table 1 comparison is the named fault: the wire
// path counts only peers that sent an update.
func checkPaper(r *runner, mem, wire *core.Analysis, records int) {
	ma, wa := paperArtefacts(mem), paperArtefacts(wire)
	for i := range ma {
		ok := ma[i].text == wa[i].text
		if ma[i].name == "Table 1" {
			r.checkKnown(ok, "paper: %s from MRT bytes differs from the in-memory one", ma[i].name)
			continue
		}
		r.check(ok, "paper: %s from MRT bytes differs from the in-memory one", ma[i].name)
	}
	total := mem.Table1[len(mem.Table1)-1]
	r.check(total.Messages == records, "paper: Table 1 total messages %d, archives hold %d BGP4MP updates", total.Messages, records)
}

// countBGP4MPUpdates counts the BGP4MP message records carrying an
// UPDATE in an MRT byte stream, reading the common headers and BGP
// message type directly rather than through the program's decoder.
func countBGP4MPUpdates(data []byte) int {
	const (
		typeBGP4MP, typeBGP4MPET = 16, 17
		bgpHeader                = 19
		msgUpdate                = 2
	)
	n := 0
	for len(data) >= 12 {
		typ := int(data[4])<<8 | int(data[5])
		sub := int(data[6])<<8 | int(data[7])
		length := int(data[8])<<24 | int(data[9])<<16 | int(data[10])<<8 | int(data[11])
		if 12+length > len(data) {
			break
		}
		body := data[12 : 12+length]
		data = data[12+length:]
		if typ != typeBGP4MP && typ != typeBGP4MPET {
			continue
		}
		if typ == typeBGP4MPET {
			body = body[4:]
		}
		// BGP4MP_MESSAGE_AS4 (4) / _LOCAL (7): peer AS, local AS (4+4),
		// ifindex (2), AFI (2), then two addresses of the AFI's size.
		if sub != 4 && sub != 7 {
			continue
		}
		afi := int(body[10])<<8 | int(body[11])
		addr := 4
		if afi == 2 {
			addr = 16
		}
		msg := body[12+2*addr:]
		if len(msg) >= bgpHeader && msg[18] == msgUpdate {
			n++
		}
	}
	return n
}

// simnetDeliveries sums the existing simnet_deliveries_total series on
// obs.Default over every engine label.
func simnetDeliveries() uint64 {
	var n uint64
	for _, e := range []string{"serial", "rounds", "delta"} {
		n += obs.Default.Counter(`simnet_deliveries_total{engine="`+e+`"}`, "").Value()
	}
	return n
}

func collectorObservations() uint64 {
	return obs.Default.Counter("collector_observations_total", "").Value()
}
