package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bgpworms/internal/semantics"
	"bgpworms/internal/watch"
)

// bulkSpec is detect-bulk's feed: a 50k-prefix universe (engine state
// of a few hundred MB, far beyond the CPU caches) hit uniformly, 200k
// events spaced 4ms of feed time apart, so the whole feed sits inside
// the engine's 15-minute window, and one planted anomaly every 500
// events.
var bulkSpec = feedSpec{
	prefixes:   50_000,
	events:     200_000,
	peers:      16,
	plantEvery: 500,
	step:       4 * time.Millisecond,
	warmup:     0.2,
}

// bulkRounds is the fewest rounds a detect-bulk run makes, so every run
// pools the same number of samples even when the machine is slow: six,
// so rate_per_s and result_s are medians that two slow rounds do not
// move.
const bulkRounds = 6

// detectInputs is a detection workload's set-up product: the feed, its
// frozen warm-up dictionary, and its recomputed truth.
type detectInputs struct {
	feed  *feed
	dict  *semantics.Snapshot
	truth *truth
	ref   []byte // single-engine /alerts
	owned []int
	last  []uint64
}

// detectSetup synthesizes the feed, warms the dictionary and opens a
// fleet on fresh directories: the timed set-up of the detection
// workloads. It returns the fleet with the feed and the dictionary.
func detectSetup(r *runner, spec feedSpec, round int) (*fleet, *feed, *semantics.Snapshot, error) {
	runtime.GC()
	t0 := time.Now()
	sp := r.tr.Start("setup")
	defer sp.End()
	fd, err := generate(spec, r.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	dict, err := warmDictionary(fd)
	if err != nil {
		return nil, nil, nil, err
	}
	var dirs []string
	for i := 0; i < fleetShards; i++ {
		d := filepath.Join(r.workdir, fmt.Sprintf("round%d-shard%d", round, i))
		if err := os.RemoveAll(d); err != nil {
			return nil, nil, nil, err
		}
		dirs = append(dirs, d)
	}
	fl, err := startFleet(dirs, dict)
	if err != nil {
		return nil, nil, nil, err
	}
	r.setups = append(r.setups, secondsSince(t0))
	return fl, fd, dict, nil
}

// topUpDetectSetups repeats the set-up (and closes each fleet) until the
// run holds n samples.
func topUpDetectSetups(r *runner, spec feedSpec, round, n int) error {
	for ; len(r.setups) < n; round++ {
		fl, _, _, err := detectSetup(r, spec, round)
		if err != nil {
			return err
		}
		fl.close()
		removeRound(r.workdir, round)
	}
	return nil
}

// newDetectInputs computes what the checks compare against: the truth
// recomputed from the feed bytes, the single-engine reference, and each
// shard's share of the feed. It runs once per run, outside every timed
// window.
func newDetectInputs(fd *feed, dict *semantics.Snapshot) (*detectInputs, error) {
	tr, err := recomputeTruth(fd.data)
	if err != nil {
		return nil, err
	}
	ref, err := referenceAlerts(fd.data, dict)
	if err != nil {
		return nil, err
	}
	owned, last, err := owners(fd.data)
	if err != nil {
		return nil, err
	}
	return &detectInputs{feed: fd, dict: dict, truth: tr, ref: ref, owned: owned, last: last}, nil
}

// runBulk is detect-bulk. One round: push the feed through the fleet,
// flush, fetch the cold merged /alerts, query every planted anomaly's
// prefix, wait for the WALs to be durable, copy both durability
// directories (the kill -9 image), recover the copies on fresh engines
// and compare the recovered fleet's merged /alerts.
func runBulk(r *runner) error {
	var in *detectInputs
	start := time.Now()
	round := 0
	for ; !r.untilDone(start, round, bulkRounds); round++ {
		fl, fd, dict, err := detectSetup(r, r.scale.bulk, round)
		if err != nil {
			return err
		}
		if in == nil {
			if in, err = newDetectInputs(fd, dict); err != nil {
				fl.close()
				return err
			}
		}
		err = bulkRound(r, in, fl, round)
		fl.close()
		removeRound(r.workdir, round)
		if err != nil {
			return err
		}
	}
	if err := topUpDetectSetups(r, r.scale.bulk, round, minSetups); err != nil {
		return err
	}
	if r.tr != nil {
		return isolateLayers(r, in)
	}
	return nil
}

// removeRound deletes a round's durability directories and images.
func removeRound(dir string, round int) {
	matches, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("round%d-*", round)))
	for _, m := range matches {
		os.RemoveAll(m)
	}
}

func bulkRound(r *runner, in *detectInputs, fl *fleet, round int) error {
	root := r.tr.Start("bulk-round")
	var decode, ingest *layerClock
	if r.tr != nil {
		decode, ingest = &layerClock{}, &layerClock{}
	}
	scatter0 := fl.scatterSeconds()

	runtime.GC() // no earlier phase's garbage is charged to this one
	t0 := time.Now()
	chunks, err := fl.ingestFeed(in.feed.data, decode, ingest)
	if err != nil {
		return err
	}
	r.latencies = append(r.latencies, chunks...)
	flush := startLayer(root, "watch.Engine.Flush + semantics.Engine.Flush (both shards)")
	var wg sync.WaitGroup
	for _, s := range fl.shards {
		wg.Add(1)
		go func() { defer wg.Done(); s.flush() }()
	}
	wg.Wait()
	r.addLayer("watch.flush_s", flush.end())
	ingestS := secondsSince(t0)
	// Per-event layers: summed over both shards, attached to the round.
	root.SetAttr("mrt.decode_s (watch.StreamMRT outside the sink)", fmt.Sprint(decode.seconds()))
	root.SetAttr("durable.ingest_s (inside Store.Ingest)", fmt.Sprint(ingest.seconds()))
	r.addLayer("mrt.decode_s", decode.seconds())
	r.addLayer("durable.ingest_s", ingest.seconds())
	if r.tr != nil {
		entries := 0
		for _, s := range fl.shards {
			entries += s.sem.Snapshot().Len()
		}
		r.setLayer("semantics.entries", float64(entries))
	}

	runtime.GC()
	sp := root.Child("frontend /alerts (cold merge)")
	t1 := time.Now()
	code, merged, err := fl.get("/alerts")
	mergeS := secondsSince(t1)
	sp.End()
	if err != nil {
		return err
	}
	r.addLayer("serve.merge_ms", mergeS*1000)
	r.addLayer("serve.scatter_ms", (fl.scatterSeconds()-scatter0)*1000)
	checkSame(r, "detect-bulk: merged /alerts vs the single engine's", code, merged, in.ref)
	checkShardCounts(r, fl, in)
	alerts, err := alertsOf(merged)
	if err != nil {
		return err
	}
	checkTruth(r, "detect-bulk", alerts, in.truth)

	sp = root.Child("frontend /prefix per planted anomaly")
	queryS := 0.0
	for _, p := range in.feed.plants {
		t := time.Now()
		code, body, err := fl.get("/prefix/" + url.PathEscape(p.Prefix.String()))
		queryS += secondsSince(t)
		r.check(err == nil && code == http.StatusOK && prefixHasAlert(body, p),
			"detect-bulk: planted %s on %s (seq %d) not visible on /prefix (status %d, err %v)", p.Detector, p.Prefix, p.Seq, code, err)
	}
	sp.End()

	// The kill -9 image: wait until every owned event is fsynced, then
	// copy the directories of the still-running fleet.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fl.waitDurable(ctx, in.last); err != nil {
		return err
	}
	var copies []string
	var walBytes int64
	for i, s := range fl.shards {
		walBytes += s.store.Status().WALBytes
		dst := filepath.Join(r.workdir, fmt.Sprintf("round%d-image%d", round, i))
		if err := os.RemoveAll(dst); err != nil {
			return err
		}
		if err := copyDir(s.dir, dst); err != nil {
			return err
		}
		copies = append(copies, dst)
	}
	r.addLayer("durable.wal_bytes", float64(walBytes))
	fl.close() // the image is taken; free the stopped fleet's memory

	runtime.GC()
	sp = root.Child("durable.Open recovery (both shards)")
	t2 := time.Now()
	rec := make([]*shard, len(copies))
	errs := make([]error, len(copies))
	openS := make([]float64, len(copies))
	for i, d := range copies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			to := time.Now()
			rec[i], errs[i] = openShard(d, i, in.dict)
			openS[i] = secondsSince(to)
			if errs[i] == nil {
				rec[i].flush()
			}
		}()
	}
	wg.Wait()
	recoverS := secondsSince(t2)
	sp.End()
	rf := newFleet(rec)
	defer rf.close()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("recover shard %d: %w", i, err)
		}
	}
	replayed := 0
	for _, s := range rec {
		replayed += s.rec.Replayed
	}
	r.addLayer("durable.recover_s", recoverS)
	r.addLayer("durable.replay_records_per_s", float64(replayed)/(openS[0]+openS[1]))

	// Serve the recovered shards behind a second frontend and compare.
	if err := rf.serve(); err != nil {
		return err
	}
	code, body, err := rf.get("/alerts")
	if err != nil {
		return err
	}
	checkSame(r, "detect-bulk: recovered fleet's /alerts vs the fleet's before the stop", code, body, merged)

	// result_s is merge + recovery: ingest has its own metrics
	// (rate_per_s, p50_ms, p95_ms), and in a sum with it a slower merge or
	// recovery would hide inside the run-to-run spread.
	result := mergeS + recoverS
	root.End()
	r.results = append(r.results, result)
	r.rates = append(r.rates, float64(in.truth.events)/ingestS)
	fmt.Printf("detect-bulk round %d: ingest %.3fs (%.0f events/s), merge %.1fms, recover %.3fs, %d /prefix queries %.1fms\n",
		round, ingestS, float64(in.truth.events)/ingestS, mergeS*1000, recoverS, len(in.feed.plants), queryS*1000)

	if r.tr != nil {
		r.setLayer("watch.alerts", float64(len(alerts)))
		share := 0.0
		for _, n := range in.owned {
			share = max(share, float64(n)/float64(in.truth.events))
		}
		r.setLayer("durable.owned_share_max", share)
	}
	r.endRound()
	return nil
}

// checkSame: a response answered 200 with exactly the wanted bytes.
func checkSame(r *runner, what string, code int, got, want []byte) {
	r.check(code == http.StatusOK && bytes.Equal(got, want), "%s: status %d, %d bytes, want %d bytes", what, code, len(got), len(want))
}

// checkShardCounts: on every shard, the events ingested into the
// engine plus the events the store skipped as not owned equal the
// events generated, and the engine processed all it ingested.
func checkShardCounts(r *runner, fl *fleet, in *detectInputs) {
	for i, s := range fl.shards {
		st, es := s.store.Status(), s.eng.Stats()
		r.check(es.Ingested+st.Skipped == uint64(in.truth.events) && es.Processed == es.Ingested && es.Dropped == 0,
			"shard %d: ingested %d + skipped %d != %d generated (processed %d, dropped %d)",
			i, es.Ingested, st.Skipped, in.truth.events, es.Processed, es.Dropped)
	}
}

// checkTruth: every alert the feed's bytes say must fire is in the
// merged set, and blackhole-onset fired only on prefixes whose feed
// carried a blackhole community.
func checkTruth(r *runner, wl string, alerts []watch.Alert, t *truth) {
	got := make(map[string]bool, len(alerts))
	stray := 0
	for _, a := range alerts {
		got[alertKey(a.Detector, a.Prefix, a.Seq, a.Community)] = true
		if a.Detector == plantBlackhole && !t.blackholed[a.Prefix.Masked()] {
			stray++
		}
	}
	missing := 0
	for k := range t.must {
		if !got[k] {
			missing++
		}
	}
	r.check(missing == 0, "%s: %d of %d alerts the feed requires are missing", wl, missing, len(t.must))
	r.check(stray == 0, "%s: %d blackhole-onset alerts on prefixes that never carried a blackhole community", wl, stray)
}

// prefixHasAlert reports whether a /prefix body holds p's alert.
func prefixHasAlert(body []byte, p plant) bool {
	var info watch.PrefixInfo
	if json.Unmarshal(body, &info) != nil {
		return false
	}
	for _, a := range info.Alerts {
		if a.Detector == p.Detector && a.Seq == p.Seq && (p.Community == "" || a.Community == p.Community) {
			return true
		}
	}
	return false
}
